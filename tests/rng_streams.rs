//! Pins the generator's streams bit for bit.
//!
//! Every random choice in a run is drawn from `cx_types::rng::SmallRng`
//! (SplitMix64), so every golden, baseline and seed-7 digest rests on
//! these streams. This file holds the first 64 outputs of each sampler
//! for two seeds and for `det_rng(7, 3)`, so a change to a sampler's
//! formula fails here, naming the sampler, before it moves a digest.

use cx_types::rng::{det_rng, SmallRng};

/// The first 64 outputs of each sampler, each from a fresh rng. `f64`s
/// are their bits; the two `bool` samplers pack draw `i` into bit `i`.
struct Streams {
    next_u64: [u64; 64],
    gen_u32: [u32; 64],
    gen_f64_bits: [u64; 64],
    gen_bool_mask: u64,
    /// `gen_bool(0.3)`.
    gen_bool_p_mask: u64,
    /// `gen_range(3..2^63 + 5)`: a span just over 2^63, where a
    /// rejection step would redraw about half the time.
    range_wide: [u64; 64],
    /// `gen_range(-500i32..1_000)`.
    range_i32: [i32; 64],
    /// `gen_range(0..10usize)`.
    range_usize: [usize; 64],
    /// `gen_range(-2.5..7.0)`.
    range_f64_bits: [u64; 64],
    /// `choose` over `[0, 7, 14, …, 6_993]`.
    choose: [u32; 64],
}

fn draw<T>(mut rng: SmallRng, mut sample: impl FnMut(&mut SmallRng) -> T) -> Vec<T> {
    (0..64).map(|_| sample(&mut rng)).collect()
}

fn pack(bits: Vec<bool>) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |mask, (i, &bit)| mask | (u64::from(bit) << i))
}

fn check(name: &str, seed: impl Fn() -> SmallRng, want: &Streams) {
    let xs: Vec<u32> = (0..1_000).map(|i| i * 7).collect();
    assert_eq!(
        draw(seed(), |r| r.next_u64()),
        want.next_u64,
        "{name}: next_u64"
    );
    assert_eq!(
        draw(seed(), |r| r.gen::<u32>()),
        want.gen_u32,
        "{name}: gen::<u32>"
    );
    let f64s = draw(seed(), |r| r.gen::<f64>().to_bits());
    assert_eq!(f64s, want.gen_f64_bits, "{name}: gen::<f64>");
    let bools = pack(draw(seed(), |r| r.gen::<bool>()));
    assert_eq!(bools, want.gen_bool_mask, "{name}: gen::<bool>");
    let p = pack(draw(seed(), |r| r.gen_bool(0.3)));
    assert_eq!(p, want.gen_bool_p_mask, "{name}: gen_bool");
    let wide = draw(seed(), |r| r.gen_range(3..(1u64 << 63) + 5));
    assert_eq!(wide, want.range_wide, "{name}: gen_range over 2^63");
    let ints = draw(seed(), |r| r.gen_range(-500i32..1_000));
    assert_eq!(ints, want.range_i32, "{name}: gen_range i32");
    let small = draw(seed(), |r| r.gen_range(0..10usize));
    assert_eq!(small, want.range_usize, "{name}: gen_range usize");
    let floats = draw(seed(), |r| r.gen_range(-2.5..7.0f64).to_bits());
    assert_eq!(floats, want.range_f64_bits, "{name}: gen_range f64");
    let picks = draw(seed(), |r| *r.choose(&xs).unwrap());
    assert_eq!(picks, want.choose, "{name}: choose");
}

#[test]
fn seeded_streams_match_their_pins() {
    check("seed 7", || SmallRng::seed_from_u64(7), &SEED_7);
    check(
        "seed u64::MAX",
        || SmallRng::seed_from_u64(u64::MAX),
        &SEED_MAX,
    );
}

#[test]
fn det_rng_streams_match_their_pins() {
    check("det_rng(7, 3)", || det_rng(7, 3), &DET_7_3);
}

#[rustfmt::skip]
const SEED_7: Streams = Streams {
    next_u64: [
        0x63cb_e1e4_5932_0dd7, 0x044c_3cd7_f43c_661c, 0xe698_4080_bab1_2a02, 0x953a_eb70_673e_29cb,
        0x73d3_3b66_6a1e_21da, 0x3fda_be86_cbbe_aa11, 0x77cb_c4a1_33c2_d0f6, 0x53fc_d651_3d02_befe,
        0x225e_c07a_9950_6761, 0x69c3_a276_8879_5369, 0x1a82_e79b_05b5_faeb, 0xf5ba_4eb7_28dd_632c,
        0xeb03_54df_4a45_b34e, 0xdf0f_9924_a301_6430, 0xdd2f_9b2d_0b5f_15e6, 0x8c5c_906b_1aeb_85f8,
        0xe12e_5d00_6cd3_d6af, 0x538c_6a0c_da73_26c7, 0x9e7e_b00e_4c9c_9e35, 0xc1df_da7a_5eb2_36f8,
        0xacb0_6798_004b_bc2f, 0x1b50_51c6_2d03_32cd, 0x582d_6717_a91d_279d, 0x6c7c_5b1c_60b8_90ff,
        0xe70c_d6df_5d49_ce30, 0xf5d8_1f33_3a1f_b9e9, 0x13a1_6201_310d_9aba, 0x6834_09b1_f2fb_545f,
        0xe6df_52ff_df83_4b47, 0x6a3f_7fb9_fcd4_241d, 0xf89c_5aca_8c44_8a78, 0x0de2_b0ab_6b89_f8ac,
        0x6218_4fda_effa_95c8, 0x4857_c52e_70de_d4d2, 0x8eb6_7bb2_bf52_8e01, 0x9b55_54be_f5eb_f42b,
        0x1363_f25c_aeb7_c570, 0xef68_4142_4a61_a275, 0x35e1_803b_f458_5807, 0x2d0d_723f_d185_9e5b,
        0xa4d4_f048_89d2_0de1, 0xeb7a_07aa_cd55_5fc9, 0x61cc_42d4_094b_9c40, 0x0ef7_4aa7_dd7f_4aec,
        0x0a45_f286_b9e7_d382, 0x51ce_3318_3622_40f6, 0x880e_43ed_5da9_a60f, 0xd3f1_83c9_86ae_c07e,
        0xd868_da38_8672_9b56, 0xa4d2_1225_283a_f2e8, 0xabaa_b891_9ec9_278a, 0x5c90_961b_7f93_6d22,
        0x1098_7a47_c025_a152, 0x40a7_6d85_3561_f4e6, 0x92d2_510f_bb0e_c12b, 0x38dd_a123_2865_cd13,
        0x7fa5_a4e0_c4f4_480e, 0x55f0_53ed_7217_c6a7, 0x9211_e202_29fc_1eaa, 0x9dc4_43bf_b29a_f542,
        0x5aee_8a91_c100_fde6, 0x5ede_cf33_5127_36da, 0xdfcd_10ef_5150_4e8a, 0x66cd_2581_3e9b_65b8,
    ],
    gen_u32: [
        0x63cb_e1e4, 0x044c_3cd7, 0xe698_4080, 0x953a_eb70, 0x73d3_3b66, 0x3fda_be86,
        0x77cb_c4a1, 0x53fc_d651, 0x225e_c07a, 0x69c3_a276, 0x1a82_e79b, 0xf5ba_4eb7,
        0xeb03_54df, 0xdf0f_9924, 0xdd2f_9b2d, 0x8c5c_906b, 0xe12e_5d00, 0x538c_6a0c,
        0x9e7e_b00e, 0xc1df_da7a, 0xacb0_6798, 0x1b50_51c6, 0x582d_6717, 0x6c7c_5b1c,
        0xe70c_d6df, 0xf5d8_1f33, 0x13a1_6201, 0x6834_09b1, 0xe6df_52ff, 0x6a3f_7fb9,
        0xf89c_5aca, 0x0de2_b0ab, 0x6218_4fda, 0x4857_c52e, 0x8eb6_7bb2, 0x9b55_54be,
        0x1363_f25c, 0xef68_4142, 0x35e1_803b, 0x2d0d_723f, 0xa4d4_f048, 0xeb7a_07aa,
        0x61cc_42d4, 0x0ef7_4aa7, 0x0a45_f286, 0x51ce_3318, 0x880e_43ed, 0xd3f1_83c9,
        0xd868_da38, 0xa4d2_1225, 0xabaa_b891, 0x5c90_961b, 0x1098_7a47, 0x40a7_6d85,
        0x92d2_510f, 0x38dd_a123, 0x7fa5_a4e0, 0x55f0_53ed, 0x9211_e202, 0x9dc4_43bf,
        0x5aee_8a91, 0x5ede_cf33, 0xdfcd_10ef, 0x66cd_2581,
    ],
    gen_f64_bits: [
        0x3fd8_f2f8_7916_4c82, 0x3f91_30f3_5fd0_f180, 0x3fec_d308_1017_5625, 0x3fe2_a75d_6e0c_e7c5,
        0x3fdc_f4ce_d99a_8788, 0x3fcf_ed5f_4365_df54, 0x3fdd_f2f1_284c_f0b4, 0x3fd4_ff35_944f_40ae,
        0x3fc1_2f60_3d4c_a830, 0x3fda_70e8_9da2_1e54, 0x3fba_82e7_9b05_b5f8, 0x3fee_b749_d6e5_1bac,
        0x3fed_606a_9be9_48b6, 0x3feb_e1f3_2494_602c, 0x3feb_a5f3_65a1_6be2, 0x3fe1_8b92_0d63_5d70,
        0x3fec_25cb_a00d_9a7a, 0x3fd4_e31a_8336_9cc8, 0x3fe3_cfd6_01c9_9393, 0x3fe8_3bfb_4f4b_d646,
        0x3fe5_960c_f300_0977, 0x3fbb_5051_c62d_0330, 0x3fd6_0b59_c5ea_4748, 0x3fdb_1f16_c718_2e24,
        0x3fec_e19a_dbeb_a939, 0x3fee_bb03_e667_43f7, 0x3fb3_a162_0131_0d98, 0x3fda_0d02_6c7c_bed4,
        0x3fec_dbea_5ffb_f069, 0x3fda_8fdf_ee7f_3508, 0x3fef_138b_5951_8891, 0x3fab_c561_56d7_13f0,
        0x3fd8_8613_f6bb_fea4, 0x3fd2_15f1_4b9c_37b4, 0x3fe1_d6cf_7657_ea51, 0x3fe3_6aaa_97de_bd7e,
        0x3fb3_63f2_5cae_b7c0, 0x3fed_ed08_2849_4c34, 0x3fca_f0c0_1dfa_2c2c, 0x3fc6_86b9_1fe8_c2cc,
        0x3fe4_9a9e_0911_3a41, 0x3fed_6f40_f559_aaab, 0x3fd8_7310_b502_52e6, 0x3fad_ee95_4fba_fe90,
        0x3fa4_8be5_0d73_cfa0, 0x3fd4_738c_c60d_8890, 0x3fe1_01c8_7dab_b534, 0x3fea_7e30_7930_d5d8,
        0x3feb_0d1b_4710_ce53, 0x3fe4_9a42_44a5_075e, 0x3fe5_7557_1233_d924, 0x3fd7_2425_86df_e4da,
        0x3fb0_987a_47c0_25a0, 0x3fd0_29db_614d_587c, 0x3fe2_5a4a_21f7_61d8, 0x3fcc_6ed0_9194_32e4,
        0x3fdf_e969_3831_3d12, 0x3fd5_7c14_fb5c_85f0, 0x3fe2_423c_4045_3f83, 0x3fe3_b888_77f6_535e,
        0x3fd6_bba2_a470_403e, 0x3fd7_b7b3_ccd4_49cc, 0x3feb_f9a2_1dea_2a09, 0x3fd9_b349_604f_a6d8,
    ],
    gen_bool_mask: 0x02c0_43ec_3af7_0729,
    gen_bool_p_mask: 0x00b0_18d2_8420_0522,
    range_wide: [
        0x31e5_f0f2_2c99_06ef, 0x0226_1e6b_fa1e_3311, 0x734c_2040_5d58_9505, 0x4a9d_75b8_339f_14e9,
        0x39e9_9db3_350f_10f0, 0x1fed_5f43_65df_550b, 0x3be5_e250_99e1_687e, 0x29fe_6b28_9e81_5f82,
        0x112f_603d_4ca8_33b3, 0x34e1_d13b_443c_a9b8, 0x0d41_73cd_82da_fd78, 0x7add_275b_946e_b19a,
        0x7581_aa6f_a522_d9ab, 0x6f87_cc92_5180_b21c, 0x6e97_cd96_85af_8af7, 0x462e_4835_8d75_c300,
        0x7097_2e80_3669_eb5c, 0x29c6_3506_6d39_9367, 0x4f3f_5807_264e_4f1e, 0x60ef_ed3d_2f59_1b80,
        0x5658_33cc_0025_de1b, 0x0da8_28e3_1681_9969, 0x2c16_b38b_d48e_93d2, 0x363e_2d8e_305c_4883,
        0x7386_6b6f_aea4_e71c, 0x7aec_0f99_9d0f_dcf9, 0x09d0_b100_9886_cd60, 0x341a_04d8_f97d_aa33,
        0x736f_a97f_efc1_a5a8, 0x351f_bfdc_fe6a_1212, 0x7c4e_2d65_4622_4540, 0x06f1_5855_b5c4_fc59,
        0x310c_27ed_77fd_4ae7, 0x242b_e297_386f_6a6c, 0x475b_3dd9_5fa9_4704, 0x4daa_aa5f_7af5_fa19,
        0x09b1_f92e_575b_e2bb, 0x77b4_20a1_2530_d13f, 0x1af0_c01d_fa2c_2c06, 0x1686_b91f_e8c2_cf30,
        0x526a_7824_44e9_06f4, 0x75bd_03d5_66aa_afe9, 0x30e6_216a_04a5_ce23, 0x077b_a553_eebf_a579,
        0x0522_f943_5cf3_e9c4, 0x28e7_198c_1b11_207e, 0x4407_21f6_aed4_d30b, 0x69f8_c1e4_c357_6043,
        0x6c34_6d1c_4339_4daf, 0x5269_0912_941d_7978, 0x55d5_5c48_cf64_93c9, 0x2e48_4b0d_bfc9_b694,
        0x084c_3d23_e012_d0ac, 0x2053_b6c2_9ab0_fa76, 0x4969_2887_dd87_6099, 0x1c6e_d091_9432_e68c,
        0x3fd2_d270_627a_240a, 0x2af8_29f6_b90b_e357, 0x4908_f101_14fe_0f59, 0x4ee2_21df_d94d_7aa5,
        0x2d77_4548_e080_7ef6, 0x2f6f_6799_a893_9b70, 0x6fe6_8877_a8a8_2749, 0x3366_92c0_9f4d_b2df,
    ],
    range_i32: [
        84, -475, 851, 374, 178, -126, 201, -8, -299, 119, -345, 939, 877, 806, 796, 322,
        819, -11, 428, 635, 511, -340, 16, 135, 853, 940, -385, 110, 852, 122, 956, -419,
        74, -77, 336, 410, -387, 902, -185, -237, 465, 879, 73, -413, -440, -21, 297, 741,
        768, 465, 505, 42, -403, -122, 360, -167, 247, 3, 355, 424, 32, 55, 811, 102,
    ],
    range_usize: [
        3, 0, 9, 5, 4, 2, 4, 3, 1, 4, 1, 9, 9, 8, 8, 5,
        8, 3, 6, 7, 6, 1, 3, 4, 9, 9, 0, 4, 9, 4, 9, 0,
        3, 2, 5, 6, 0, 9, 2, 1, 6, 9, 3, 0, 0, 3, 5, 8,
        8, 6, 6, 3, 0, 2, 5, 2, 4, 3, 5, 6, 3, 3, 8, 4,
    ],
    range_f64_bits: [
        0x3ff3_410e_1f94_f5b4, 0xc002_b95d_efe3_7e14, 0x4018_3a99_931b_b64c, 0x4008_4d7d_e55e_a674,
        0x3ffc_c56b_44cf_01e4, 0xbfc0_b0f6_ffb8_3660, 0x3fff_20fc_bfb6_bbac, 0x3fe3_bc3e_8078_733c,
        0xbff3_97bd_b734_f847, 0x3ff6_cc28_7661_0808, 0xbff8_4246_7bf4_9bf5, 0x401a_79a7_af30_10dc,
        0x4018_e27e_9925_0658, 0x4017_1c50_bb70_3234, 0x4016_d511_08af_b01c, 0x4005_ab7a_dfcb_fdea,
        0x4017_6ce1_ce10_2770, 0x3fe3_36bd_ef43_68b8, 0x400b_0d9c_443e_be7e, 0x4012_c73a_6e2a_0e73,
        0x400f_445e_c120_167a, 0xbff7_c84f_7255_461c, 0x3fe8_b5ea_6c18_d298, 0x3ff8_69d6_18d9_6d94,
        0x4018_4be7_e527_d8f4, 0x401a_7e14_a19a_a0b6, 0xbffc_582d_cf4a_dfee, 0x3ff5_dee5_c1a8_4538,
        0x4018_4526_51fb_2d7c, 0x3ff7_15b3_d66e_1df4, 0x401a_e735_7a10_d22c, 0xbfff_c167_1a38_2615,
        0x3ff2_3e6f_69fe_7cc6, 0x3fc7_a0e8_9c98_2260, 0x4006_5e2c_b910_cc80, 0x400a_1d55_28b1_020c,
        0xbffc_7ca8_18f8_42e6, 0x4019_8979_afd7_0a7e, 0xbfe0_0437_b8cd_d718, 0xbfea_8008_5437_315c,
        0x400c_ef37_5588_ea5a, 0x4018_f41d_235a_7aac, 0x3ff2_1147_ade5_84e2, 0xbfff_1d2b_ac54_7c6d,
        0xc000_f33c_0000_cf2e, 0x3fe1_24dc_acc0_48ac, 0x4004_643c_2a77_ce5c, 0x4015_75d9_8fe9_fdf0,
        0x4016_1f90_6463_f502, 0x400c_ee5d_6307_f180, 0x400e_f6ae_cb3b_23b6, 0x3fed_ebb2_40a7_7f0c,
        0xbffe_2577_6565_e9a9, 0xbfb9_c96f_8e84_dda0, 0x4007_9670_10ab_8860, 0xbfd8_f1a1_4c80_0e48,
        0x4001_e52c_f2ba_7886, 0x3fe6_0d63_a9f7_7c34, 0x4007_5d4f_18a4_76d8, 0x400a_d644_1ce9_0600,
        0x3feb_fb44_8d15_3128, 0x3ff0_544b_0678_2f44, 0x4017_3870_8386_11ea, 0x3ff5_09ce_44bd_2c40,
    ],
    choose: [
        2723, 112, 6300, 4074, 3164, 1743, 3269, 2296, 938, 2891, 721, 6713, 6426, 6097, 6048, 3836,
        6153, 2282, 4333, 5299, 4718, 742, 2408, 2961, 6314, 6720, 532, 2849, 6307, 2905, 6797, 378,
        2681, 1974, 3899, 4242, 525, 6545, 1470, 1225, 4501, 6433, 2674, 406, 280, 2233, 3717, 5789,
        5915, 4501, 4690, 2527, 448, 1764, 4011, 1554, 3486, 2345, 3990, 4312, 2485, 2590, 6118, 2807,
    ],
};

#[rustfmt::skip]
const SEED_MAX: Streams = Streams {
    next_u64: [
        0xe4d9_7177_1b65_2c20, 0xe99f_f867_dbf6_82c9, 0x382f_f84c_b272_81e9, 0x6d1d_b36c_cba9_82d2,
        0xb4a0_472e_5780_69ae, 0xd31d_adbd_a438_bb33, 0xf14f_2cf8_0208_3fa5, 0x405d_a438_a39e_8064,
        0xc4fe_a708_156e_0c84, 0x031e_50fe_7bbd_6e1c, 0x03b2_3496_1e71_cf15, 0xce75_5952_d302_5da7,
        0x01c9_558b_d006_badb, 0xdd90_e10f_6f7c_1c8a, 0x354d_0df8_b258_78c1, 0xacee_a13c_a07e_34e8,
        0x6887_829e_84a5_e267, 0x312b_54a5_9456_e8d2, 0x2310_bd4a_be96_ea03, 0x6c5e_df5c_23be_2179,
        0x5d4b_ee7a_ccc8_783d, 0xac2c_c667_9ba3_863f, 0x78a0_a3eb_16c1_7603, 0x31ba_fc61_d077_172e,
        0x2f36_eb37_51d1_14e2, 0x9862_f4d3_8a9c_dc26, 0xd870_587c_607f_67b4, 0x728b_be64_523c_ed67,
        0xc1af_2b37_c863_da48, 0x0477_de91_b96b_7b43, 0x24bd_f605_ee18_8704, 0xde2b_5db6_52a5_41fe,
        0x69d2_2506_dd45_62e7, 0xf32a_883a_6fe8_c041, 0x9464_fd3a_d6ff_c7e6, 0x5d49_3066_45a3_f5d0,
        0x1034_c75d_19b9_0a68, 0x3a08_6468_95d4_c27d, 0x3909_f559_401b_6dab, 0x6d8e_0875_d224_4181,
        0xc1ea_9995_40c6_b593, 0xb2c2_ee35_7b69_687a, 0x0be2_af7d_e053_863b, 0xbe12_d15e_a25a_b6db,
        0x67a3_5627_faee_2176, 0x1fef_5432_ddef_ddf6, 0x7ffa_faa7_9246_9e76, 0xd855_2dd6_a89d_98eb,
        0xc9b1_d739_80d1_9013, 0xc490_13cf_9659_a284, 0x20a1_c64a_8122_0e03, 0xc596_3361_0ccf_1a30,
        0xbca7_20bf_33d8_72b2, 0x1587_26fe_b534_ede3, 0x754d_2727_099f_c988, 0x4b39_ba29_f824_570e,
        0x6951_c595_b9fd_6983, 0x397c_1e3b_5d1f_14c5, 0xca0c_5833_da89_72d7, 0x69d3_dbec_2ed2_7ff2,
        0xa8f6_0453_f01a_91bc, 0xaf9e_296a_11fa_84c8, 0x19d8_195b_23e4_c895, 0xf63b_7b90_46fe_a981,
    ],
    gen_u32: [
        0xe4d9_7177, 0xe99f_f867, 0x382f_f84c, 0x6d1d_b36c, 0xb4a0_472e, 0xd31d_adbd,
        0xf14f_2cf8, 0x405d_a438, 0xc4fe_a708, 0x031e_50fe, 0x03b2_3496, 0xce75_5952,
        0x01c9_558b, 0xdd90_e10f, 0x354d_0df8, 0xacee_a13c, 0x6887_829e, 0x312b_54a5,
        0x2310_bd4a, 0x6c5e_df5c, 0x5d4b_ee7a, 0xac2c_c667, 0x78a0_a3eb, 0x31ba_fc61,
        0x2f36_eb37, 0x9862_f4d3, 0xd870_587c, 0x728b_be64, 0xc1af_2b37, 0x0477_de91,
        0x24bd_f605, 0xde2b_5db6, 0x69d2_2506, 0xf32a_883a, 0x9464_fd3a, 0x5d49_3066,
        0x1034_c75d, 0x3a08_6468, 0x3909_f559, 0x6d8e_0875, 0xc1ea_9995, 0xb2c2_ee35,
        0x0be2_af7d, 0xbe12_d15e, 0x67a3_5627, 0x1fef_5432, 0x7ffa_faa7, 0xd855_2dd6,
        0xc9b1_d739, 0xc490_13cf, 0x20a1_c64a, 0xc596_3361, 0xbca7_20bf, 0x1587_26fe,
        0x754d_2727, 0x4b39_ba29, 0x6951_c595, 0x397c_1e3b, 0xca0c_5833, 0x69d3_dbec,
        0xa8f6_0453, 0xaf9e_296a, 0x19d8_195b, 0xf63b_7b90,
    ],
    gen_f64_bits: [
        0x3fec_9b2e_2ee3_6ca5, 0x3fed_33ff_0cfb_7ed0, 0x3fcc_17fc_2659_3940, 0x3fdb_476c_db32_ea60,
        0x3fe6_9408_e5ca_f00d, 0x3fea_63b5_b7b4_8717, 0x3fee_29e5_9f00_4107, 0x3fd0_1769_0e28_e7a0,
        0x3fe8_9fd4_e102_adc1, 0x3f88_f287_f3dd_eb40, 0x3f8d_91a4_b0f3_8e40, 0x3fe9_ceab_2a5a_604b,
        0x3f7c_9558_bd00_6b80, 0x3feb_b21c_21ed_ef83, 0x3fca_a686_fc59_2c3c, 0x3fe5_9dd4_2794_0fc6,
        0x3fda_21e0_a7a1_2978, 0x3fc8_95aa_52ca_2b74, 0x3fc1_885e_a55f_4b74, 0x3fdb_17b7_d708_ef88,
        0x3fd7_52fb_9eb3_321e, 0x3fe5_8598_ccf3_7470, 0x3fde_2828_fac5_b05c, 0x3fc8_dd7e_30e8_3b88,
        0x3fc7_9b75_9ba8_e888, 0x3fe3_0c5e_9a71_539b, 0x3feb_0e0b_0f8c_0fec, 0x3fdc_a2ef_9914_8f3a,
        0x3fe8_35e5_66f9_0c7b, 0x3f91_df7a_46e5_ade0, 0x3fc2_5efb_02f7_0c40, 0x3feb_c56b_b6ca_54a8,
        0x3fda_7489_41b7_5158, 0x3fee_6551_074d_fd18, 0x3fe2_8c9f_a75a_dff8, 0x3fd7_524c_1991_68fc,
        0x3fb0_34c7_5d19_b908, 0x3fcd_0432_344a_ea60, 0x3fcc_84fa_aca0_0db4, 0x3fdb_6382_1d74_8910,
        0x3fe8_3d53_32a8_18d6, 0x3fe6_585d_c6af_6d2d, 0x3fa7_c55e_fbc0_a700, 0x3fe7_c25a_2bd4_4b56,
        0x3fd9_e8d5_89fe_bb88, 0x3fbf_ef54_32dd_efd8, 0x3fdf_febe_a9e4_91a6, 0x3feb_0aa5_bad5_13b3,
        0x3fe9_363a_e730_1a32, 0x3fe8_9202_79f2_cb34, 0x3fc0_50e3_2540_9104, 0x3fe8_b2c6_6c21_99e3,
        0x3fe7_94e4_17e6_7b0e, 0x3fb5_8726_feb5_34e8, 0x3fdd_5349_c9c2_67f2, 0x3fd2_ce6e_8a7e_0914,
        0x3fda_5471_656e_7f5a, 0x3fcc_be0f_1dae_8f88, 0x3fe9_418b_067b_512e, 0x3fda_74f6_fb0b_b49e,
        0x3fe5_1ec0_8a7e_0352, 0x3fe5_f3c5_2d42_3f50, 0x3fb9_d819_5b23_e4c8, 0x3fee_c76f_7208_dfd5,
    ],
    gen_bool_mask: 0xc725_8de3_287d_5c66,
    gen_bool_p_mask: 0x42a4_2470_6186_5684,
    range_wide: [
        0x726c_b8bb_8db2_9614, 0x74cf_fc33_edfb_4169, 0x1c17_fc26_5939_40f7, 0x368e_d9b6_65d4_c16c,
        0x5a50_2397_2bc0_34db, 0x698e_d6de_d21c_5d9e, 0x78a7_967c_0104_1fd7, 0x202e_d21c_51cf_4035,
        0x627f_5384_0ab7_0646, 0x018f_287f_3dde_b711, 0x01d9_1a4b_0f38_e78d, 0x673a_aca9_6981_2ed8,
        0x00e4_aac5_e803_5d70, 0x6ec8_7087_b7be_0e49, 0x1aa6_86fc_592c_3c63, 0x5677_509e_503f_1a78,
        0x3443_c14f_4252_f137, 0x1895_aa52_ca2b_746c, 0x1188_5ea5_5f4b_7504, 0x362f_6fae_11df_10c0,
        0x2ea5_f73d_6664_3c22, 0x5616_6333_cdd1_c323, 0x3c50_51f5_8b60_bb05, 0x18dd_7e30_e83b_8b9a,
        0x179b_759b_a8e8_8a74, 0x4c31_7a69_c54e_6e17, 0x6c38_2c3e_303f_b3de, 0x3945_df32_291e_76b7,
        0x60d7_959b_e431_ed28, 0x023b_ef48_dcb5_bda4, 0x125e_fb02_f70c_4385, 0x6f15_aedb_2952_a103,
        0x34e9_1283_6ea2_b177, 0x7995_441d_37f4_6025, 0x4a32_7e9d_6b7f_e3f7, 0x2ea4_9833_22d1_faeb,
        0x081a_63ae_8cdc_8537, 0x1d04_3234_4aea_6141, 0x1c84_faac_a00d_b6d8, 0x36c7_043a_e912_20c4,
        0x60f5_4cca_a063_5ace, 0x5961_771a_bdb4_b441, 0x05f1_57be_f029_c320, 0x5f09_68af_512d_5b71,
        0x33d1_ab13_fd77_10be, 0x0ff7_aa19_6ef7_eefe, 0x3ffd_7d53_c923_4f3e, 0x6c2a_96eb_544e_cc7a,
        0x64d8_eb9c_c068_c80e, 0x6248_09e7_cb2c_d146, 0x1050_e325_4091_0704, 0x62cb_19b0_8667_8d1c,
        0x5e53_905f_99ec_395d, 0x0ac3_937f_5a9a_76f4, 0x3aa6_9393_84cf_e4c7, 0x259c_dd14_fc12_2b8a,
        0x34a8_e2ca_dcfe_b4c5, 0x1cbe_0f1d_ae8f_8a65, 0x6506_2c19_ed44_b970, 0x34e9_edf6_1769_3ffc,
        0x547b_0229_f80d_48e2, 0x57cf_14b5_08fd_4268, 0x0cec_0cad_91f2_644d, 0x7b1d_bdc8_237f_54c5,
    ],
    range_i32: [
        840, 868, -171, 139, 558, 737, 913, -123, 654, -482, -479, 709, -490, 798, -188, 513,
        112, -212, -295, 134, 46, 508, 206, -209, -224, 392, 768, 171, 634, -474, -285, 801,
        120, 924, 369, 46, -406, -160, -166, 141, 636, 547, -431, 613, 107, -313, 249, 767,
        681, 651, -309, 657, 605, -374, 187, -60, 117, -164, 683, 120, 490, 529, -349, 942,
    ],
    range_usize: [
        8, 9, 2, 4, 7, 8, 9, 2, 7, 0, 0, 8, 0, 8, 2, 6,
        4, 1, 1, 4, 3, 6, 4, 1, 1, 5, 8, 4, 7, 0, 1, 8,
        4, 9, 5, 3, 0, 2, 2, 4, 7, 6, 0, 7, 4, 1, 4, 8,
        7, 7, 1, 7, 7, 0, 4, 2, 4, 2, 7, 4, 6, 6, 1, 9,
    ],
    range_f64_bits: [
        0x4017_f846_d7ae_1104, 0x4018_adbe_df6a_a698, 0xbfda_8e12_49d8_3010, 0x3ff8_c9a2_8898_eca4,
        0x4010_cfca_90e0_fd0f, 0x4015_5667_ca26_606b, 0x4019_d1c0_acd0_4d38, 0xbfbc_8667_e5ed_9e40,
        0x4013_3dcc_cb33_2e55, 0xc003_12ff_f473_43c5, 0xc002_e718_636e_f639, 0x4014_a56b_424b_5259,
        0xc003_783a_9a7e_3e01, 0x4016_e381_684a_8c6c, 0xbfe0_b47f_68ac_36f2, 0x400f_56d7_ddff_a576,
        0x3ff6_1075_8e1e_c27c, 0xbfe5_9c8b_7b5f_d8cc, 0xbff3_2e0f_9b9e_d666, 0x3ff8_5854_9eb5_38e4,
        0x3fee_ca2b_31d3_2e10, 0x400f_1d4a_e6c2_348a, 0x3fff_9f61_5395_82dc, 0xbfe4_f1f4_4bd8_729c,
        0xbfe7_eec8_ae4e_d7bc, 0x4009_3d60_aecd_2690, 0x4016_20ad_2276_52e8, 0x3ffc_02f9_0b90_d428,
        0x4012_c000_6a47_bed2, 0xc002_ac69_ecbc_f418, 0xbff2_2f35_ec7a_a174, 0x4016_fa6f_e910_4488,
        0x3ff6_d4c5_fc13_6130, 0x401a_1850_38ac_9c8c, 0x4008_0dfb_2d77_d3ec, 0x3fee_c6e9_7972_b2ac,
        0xbffe_60a9_a0b8_ba23, 0xbfd6_2c11_879c_26b8, 0xbfd8_8859_4c07_bee8, 0x3ff9_0c55_05f4_c588,
        0x4012_c8d2_cc27_9d7e, 0x4010_88ef_5bf0_51a5, 0xc000_78b3_e6a1_6736, 0x4012_36cb_140c_1976,
        0x3ff5_88fb_27bc_fd64, 0xbff5_09e6_01cc_3998, 0x4001_fe82_69bf_6cf6, 0x4016_1ca4_cddd_0764,
        0x4013_f065_f289_1f1b, 0x4013_2d62_f0d0_514e, 0xbff4_9ff2_43c3_53cb, 0x4013_544b_a067_e6be,
        0x4012_00ce_dc61_b221, 0xbffb_37c0_d8c4_6896, 0x3ffd_a5cf_3f2d_b6e0, 0x3fd2_a91a_23ad_5640,
        0x3ff6_888d_50e6_6e76, 0xbfd7_7938_3302_d638, 0x4013_fdd5_17b2_7067, 0x3ff6_d5ca_943b_ccf8,
        0x400e_2909_48eb_47e2, 0x4010_117a_25be_ab2f, 0xbff8_a7b0_f1e2_b029, 0x401a_8cd4_576a_89cc,
    ],
    choose: [
        6251, 6384, 1533, 2982, 4935, 5768, 6594, 1757, 5383, 84, 98, 5642, 42, 6055, 1456, 4725,
        2856, 1344, 952, 2961, 2548, 4704, 3297, 1358, 1288, 4165, 5915, 3129, 5292, 119, 1001, 6069,
        2891, 6643, 4053, 2548, 441, 1582, 1554, 2989, 5299, 4886, 322, 5194, 2828, 868, 3493, 5915,
        5509, 5369, 889, 5397, 5152, 588, 3206, 2051, 2877, 1568, 5523, 2891, 4620, 4802, 700, 6727,
    ],
};

#[rustfmt::skip]
const DET_7_3: Streams = Streams {
    next_u64: [
        0x431b_b305_3cf2_cccb, 0x8b32_b134_94a4_aaf6, 0xab37_fde3_fc8b_6be5, 0x9670_1a78_7f30_9232,
        0xc395_7ad0_7c07_2224, 0xc29d_a2e5_38f7_2eda, 0x2ff1_20b4_9e50_ec84, 0x325e_77cc_c9fb_7373,
        0xd6f2_95f4_d72d_2978, 0xbdae_43e3_34ee_7045, 0x531d_f6df_190a_bb6b, 0x1f4c_d791_1bd6_bcda,
        0x57e3_00f7_96e8_7d2e, 0xe9eb_880f_5350_52fe, 0x0ac2_e8db_890b_760b, 0xd177_f774_c311_026e,
        0x780f_0e04_881c_97c9, 0x0c26_fc95_ae55_e3d9, 0xde99_0ece_ede4_7d6b, 0x2519_0d48_c09e_e722,
        0x6fec_f2fc_a677_2d8d, 0xf114_a7c9_e26a_58dd, 0x82f8_f004_a590_bd41, 0xb926_40ea_d9ba_d97b,
        0x28e2_43a1_e5dd_e0e8, 0xc0f1_feb1_dedb_8292, 0x3478_3167_e02c_a449, 0xae4e_a429_3b77_d450,
        0x8456_7145_67bf_9040, 0xeda9_6b88_c274_162e, 0x988a_7699_cce0_6bcf, 0x6978_498f_3a04_4b35,
        0x1065_c603_2434_4968, 0x3acb_f78e_2ad8_f141, 0x0dc1_56d4_7b91_3e45, 0x2708_f597_d77b_3dfc,
        0x9646_b75e_2147_6991, 0x9a2f_825a_fc7f_10ca, 0x3a24_dec5_53d1_d4c5, 0x1284_6b88_3fb8_5133,
        0xc439_60f5_8dcc_2608, 0x3bba_ccd6_d1e2_b0b1, 0xae02_0dd4_631b_b972, 0x064f_11ab_499c_6f75,
        0x2e63_2479_e9fe_083c, 0x99c9_0921_c599_1ee5, 0xdf66_cd58_ac94_c2e0, 0xcebc_b480_58dc_8eec,
        0x6b8a_c6d7_43ae_ada0, 0x34e8_16e9_0805_1693, 0x27bb_dea7_2528_8cd0, 0xac81_1c68_1b86_a4cd,
        0x21fd_a6c8_1c87_a38c, 0x6c8c_9f1f_6c10_08c4, 0xb329_210c_01df_e1bb, 0x3507_6c80_84b1_b612,
        0x0581_27ce_1477_0f60, 0x0374_5d35_b4c6_c77d, 0x6eff_5706_2c7d_3342, 0x838e_841e_7c22_35f6,
        0xfd10_0c5a_4787_8c0e, 0x17d1_52f3_7d48_522d, 0xf1cd_1fe3_294b_3872, 0x112d_1e57_8ee5_6865,
    ],
    gen_u32: [
        0x431b_b305, 0x8b32_b134, 0xab37_fde3, 0x9670_1a78, 0xc395_7ad0, 0xc29d_a2e5,
        0x2ff1_20b4, 0x325e_77cc, 0xd6f2_95f4, 0xbdae_43e3, 0x531d_f6df, 0x1f4c_d791,
        0x57e3_00f7, 0xe9eb_880f, 0x0ac2_e8db, 0xd177_f774, 0x780f_0e04, 0x0c26_fc95,
        0xde99_0ece, 0x2519_0d48, 0x6fec_f2fc, 0xf114_a7c9, 0x82f8_f004, 0xb926_40ea,
        0x28e2_43a1, 0xc0f1_feb1, 0x3478_3167, 0xae4e_a429, 0x8456_7145, 0xeda9_6b88,
        0x988a_7699, 0x6978_498f, 0x1065_c603, 0x3acb_f78e, 0x0dc1_56d4, 0x2708_f597,
        0x9646_b75e, 0x9a2f_825a, 0x3a24_dec5, 0x1284_6b88, 0xc439_60f5, 0x3bba_ccd6,
        0xae02_0dd4, 0x064f_11ab, 0x2e63_2479, 0x99c9_0921, 0xdf66_cd58, 0xcebc_b480,
        0x6b8a_c6d7, 0x34e8_16e9, 0x27bb_dea7, 0xac81_1c68, 0x21fd_a6c8, 0x6c8c_9f1f,
        0xb329_210c, 0x3507_6c80, 0x0581_27ce, 0x0374_5d35, 0x6eff_5706, 0x838e_841e,
        0xfd10_0c5a, 0x17d1_52f3, 0xf1cd_1fe3, 0x112d_1e57,
    ],
    gen_f64_bits: [
        0x3fd0_c6ec_c14f_3cb2, 0x3fe1_6656_2692_9495, 0x3fe5_66ff_bc7f_916d, 0x3fe2_ce03_4f0f_e612,
        0x3fe8_72af_5a0f_80e4, 0x3fe8_53b4_5ca7_1ee5, 0x3fc7_f890_5a4f_2874, 0x3fc9_2f3b_e664_fdb8,
        0x3fea_de52_be9a_e5a5, 0x3fe7_b5c8_7c66_9dce, 0x3fd4_c77d_b7c6_42ae, 0x3fbf_4cd7_911b_d6b8,
        0x3fd5_f8c0_3de5_ba1e, 0x3fed_3d71_01ea_6a0a, 0x3fa5_85d1_b712_16e0, 0x3fea_2efe_ee98_6220,
        0x3fde_03c3_8122_0724, 0x3fa8_4df9_2b5c_abc0, 0x3feb_d321_d9dd_bc8f, 0x3fc2_8c86_a460_4f70,
        0x3fdb_fb3c_bf29_9dca, 0x3fee_2294_f93c_4d4b, 0x3fe0_5f1e_0094_b217, 0x3fe7_24c8_1d5b_375b,
        0x3fc4_7121_d0f2_eef0, 0x3fe8_1e3f_d63b_db70, 0x3fca_3c18_b3f0_1650, 0x3fe5_c9d4_8527_6efa,
        0x3fe0_8ace_28ac_f7f2, 0x3fed_b52d_7118_4e82, 0x3fe3_114e_d339_9c0d, 0x3fda_5e12_63ce_8112,
        0x3fb0_65c6_0324_3448, 0x3fcd_65fb_c715_6c78, 0x3fab_82ad_a8f7_2270, 0x3fc3_847a_cbeb_bd9c,
        0x3fe2_c8d6_ebc4_28ed, 0x3fe3_45f0_4b5f_8fe2, 0x3fcd_126f_62a9_e8e8, 0x3fb2_846b_883f_b850,
        0x3fe8_872c_1eb1_b984, 0x3fcd_dd66_6b68_f158, 0x3fe5_c041_ba8c_6377, 0x3f99_3c46_ad26_71a0,
        0x3fc7_3192_3cf4_ff04, 0x3fe3_3921_2438_b323, 0x3feb_ecd9_ab15_9298, 0x3fe9_d796_900b_1b91,
        0x3fda_e2b1_b5d0_ebaa, 0x3fca_740b_7484_0288, 0x3fc3_ddef_5392_9444, 0x3fe5_9023_8d03_70d4,
        0x3fc0_fed3_640e_43d0, 0x3fdb_2327_c7db_0402, 0x3fe6_6524_2180_3bfc, 0x3fca_83b6_4042_58d8,
        0x3f96_049f_3851_dc20, 0x3f8b_a2e9_ada6_3600, 0x3fdb_bfd5_c18b_1f4c, 0x3fe0_71d0_83cf_8446,
        0x3fef_a201_8b48_f0f1, 0x3fb7_d152_f37d_4850, 0x3fee_39a3_fc65_2967, 0x3fb1_2d1e_578e_e568,
    ],
    gen_bool_mask: 0xa24a_2ad6_c4f7_4685,
    gen_bool_p_mask: 0xa396_1acf_050a_48c1,
    range_wide: [
        0x218d_d982_9e79_6669, 0x4599_589a_4a52_557f, 0x559b_fef1_fe45_b5f6, 0x4b38_0d3c_3f98_491d,
        0x61ca_bd68_3e03_9116, 0x614e_d172_9c7b_9771, 0x17f8_905a_4f28_7645, 0x192f_3be6_64fd_b9bc,
        0x6b79_4afa_6b96_94c0, 0x5ed7_21f1_9a77_3826, 0x298e_fb6f_8c85_5db9, 0x0fa6_6bc8_8deb_5e70,
        0x2bf1_807b_cb74_3e9a, 0x74f5_c407_a9a8_2983, 0x0561_746d_c485_bb08, 0x68bb_fbba_6188_813b,
        0x3c07_8702_440e_4be8, 0x0613_7e4a_d72a_f1ef, 0x6f4c_8767_76f2_3eba, 0x128c_86a4_604f_7394,
        0x37f6_797e_533b_96ca, 0x788a_53e4_f135_2c73, 0x417c_7802_52c8_5ea4, 0x5c93_2075_6cdd_6cc1,
        0x1471_21d0_f2ee_f077, 0x6078_ff58_ef6d_c14d, 0x1a3c_18b3_f016_5227, 0x5727_5214_9dbb_ea2c,
        0x422b_38a2_b3df_c824, 0x76d4_b5c4_613a_0b1b, 0x4c45_3b4c_e670_35eb, 0x34bc_24c7_9d02_259e,
        0x0832_e301_921a_24b7, 0x1d65_fbc7_156c_78a3, 0x06e0_ab6a_3dc8_9f25, 0x1384_7acb_ebbd_9f01,
        0x4b23_5baf_10a3_b4cc, 0x4d17_c12d_7e3f_8869, 0x1d12_6f62_a9e8_ea65, 0x0942_35c4_1fdc_289c,
        0x621c_b07a_c6e6_1308, 0x1ddd_666b_68f1_585b, 0x5701_06ea_318d_dcbd, 0x0327_88d5_a4ce_37bd,
        0x1731_923c_f4ff_0421, 0x4ce4_8490_e2cc_8f76, 0x6fb3_66ac_564a_6174, 0x675e_5a40_2c6e_477a,
        0x35c5_636b_a1d7_56d3, 0x1a74_0b74_8402_8b4c, 0x13dd_ef53_9294_466b, 0x5640_8e34_0dc3_526a,
        0x10fe_d364_0e43_d1c9, 0x3646_4f8f_b608_0465, 0x5994_9086_00ef_f0e1, 0x1a83_b640_4258_db0c,
        0x02c0_93e7_0a3b_87b3, 0x01ba_2e9a_da63_63c1, 0x377f_ab83_163e_99a4, 0x41c7_420f_3e11_1aff,
        0x7e88_062d_23c3_c60b, 0x0be8_a979_bea4_2919, 0x78e6_8ff1_94a5_9c3d, 0x0896_8f2b_c772_b435,
    ],
    range_i32: [
        -107, 315, 503, 381, 645, 640, -220, -205, 759, 611, -13, -317, 14, 870, -437, 727,
        203, -429, 804, -283, 155, 912, 267, 584, -261, 630, -193, 521, 275, 892, 393, 117,
        -404, -156, -420, -272, 380, 403, -160, -392, 649, -151, 519, -464, -229, 401, 808, 711,
        130, -191, -268, 510, -301, 136, 549, -190, -468, -480, 150, 270, 982, -361, 916, -400,
    ],
    range_usize: [
        2, 5, 6, 5, 7, 7, 1, 1, 8, 7, 3, 1, 3, 9, 0, 8,
        4, 0, 8, 1, 4, 9, 5, 7, 1, 7, 2, 6, 5, 9, 5, 4,
        0, 2, 0, 1, 5, 6, 2, 0, 7, 2, 6, 0, 1, 6, 8, 8,
        4, 2, 1, 6, 1, 4, 6, 2, 0, 0, 4, 5, 9, 0, 9, 0,
    ],
    range_f64_bits: [
        0xbf83_c6da_71e7_ed00, 0x4005_530c_9b9c_20e2, 0x400e_d49f_5fae_f962, 0x4008_a947_dbc5_c26a,
        0x4013_0830_3af2_690f, 0x4012_e366_2e06_74b0, 0xbfe7_11a9_2983_ffec, 0xbfe4_2fd1_bcd0_256c,
        0x4015_e802_4257_f0b4, 0x4012_27de_13b9_db65, 0x3fe2_b395_28ed_bcbc, 0xbff5_6a60_01d7_7883,
        0x3fe8_5d91_2603_3410, 0x4018_b8f6_3246_5dec, 0xc000_ce22_ded3_509b, 0x4015_17ce_bb54_f486,
        0x3fff_48f0_52b0_d0f4, 0xc000_646d_0390_3e82, 0x4017_0ab8_32b7_4fea, 0xbff1_f920_1ccd_a1ab,
        0x3ffa_74b0_4602_d6c0, 0x4019_c910_e7f7_9bca, 0x4002_e1e7_4161_26f6, 0x4011_7bad_a2dc_51bc,
        0xbfef_734f_afbf_0886, 0x4012_a3eb_ce67_1495, 0xbfe1_b145_54a5_cb02, 0x400f_bf58_bc3d_a792,
        0x4003_49a9_a09a_ccde, 0x4019_4725_f64c_dd3a, 0x4009_491b_35a8_d29e, 0x3ff6_9f6b_ad0a_728a,
        0xbffe_4392_6e22_80f5, 0xbfd4_5b94_0e5a_3cc8, 0xbfff_d534_71d6_a1c7, 0xbff0_d2ae_2dd8_0ed7,
        0x4008_9cfe_6ff1_e132, 0x4009_c61a_b302_f5b8, 0xbfd5_e86e_eb58_edb0, 0xbffd_0160_271a_2a90,
        0x4013_2084_6473_0c4d, 0xbfd2_2459_81cd_85a0, 0x400f_a89c_1b0d_6c3a, 0xc002_2086_c126_2591,
        0xbfe8_ea44_af3a_2256, 0x4009_a7ae_b606_a974, 0x4017_2942_7b29_9e14, 0x4014_b002_cb0d_30bc,
        0x3ff7_da66_0fd0_2fb4, 0xbfe1_2c64_cb46_79fc, 0xbff0_6873_ccc1_efef, 0x400f_3654_6ee8_2bf8,
        0xbff3_d164_f92f_0f79, 0x3ff8_737e_7aa8_2984, 0x4010_981a_e7c8_473b, 0xbfe1_072f_2762_6d00,
        0xc002_5da8_2ed1_ecaa, 0xc002_f974_540e_54ff, 0x3ff9_e79b_abaa_6a54, 0x4003_0e4f_390c_da26,
        0x401b_9061_d566_9e1e, 0xbff9_dbb6_bf6d_9d10, 0x4019_e472_bbb8_212a, 0xbffd_cd35_fc03_27ca,
    ],
    choose: [
        1834, 3801, 4676, 4109, 5341, 5320, 1309, 1372, 5873, 5180, 2268, 854, 2401, 6391, 294, 5726,
        3276, 329, 6083, 1008, 3059, 6587, 3577, 5061, 1113, 5271, 1428, 4760, 3612, 6496, 4165, 2877,
        448, 1603, 371, 1064, 4109, 4214, 1589, 504, 5362, 1631, 4753, 168, 1267, 4200, 6104, 5649,
        2940, 1442, 1085, 4711, 924, 2968, 4893, 1449, 147, 91, 3031, 3591, 6916, 651, 6608, 469,
    ],
};
