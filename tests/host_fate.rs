//! The engine host's fate rule, over a recording port: the host, not the
//! port, carries out what a fault decides about a send, and counts it.

use cx_protocol::host::{carry_out, Lateness, MsgCounts, MsgFate, Ports};
use cx_protocol::{Action, Endpoint};
use cx_simio::DiskReq;
use cx_types::{MsgKind, OpId, Payload, ProcId, ServerId, SimTime};

/// Answers every send with one fate and records what reaches it.
struct Recorder {
    fate: MsgFate,
    sent: MsgCounts,
    wire: Vec<Lateness>,
}

impl Ports for Recorder {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn sent(&mut self) -> &mut MsgCounts {
        &mut self.sent
    }
    fn fate(&mut self, _: Endpoint, _: Endpoint, _: MsgKind) -> MsgFate {
        self.fate
    }
    fn send(&mut self, _: Endpoint, _: Endpoint, _: Payload, late: Lateness) {
        self.wire.push(late);
    }
    fn disk(&mut self, _: ServerId, req: DiskReq) -> Option<u64> {
        Some(req.token())
    }
    fn set_timer(&mut self, _: Endpoint, _: u64, _: u64) {}
}

/// One client→server send carried out under `fate`.
fn send_once(fate: MsgFate) -> Recorder {
    let mut ports = Recorder {
        fate,
        sent: MsgCounts::default(),
        wire: Vec::new(),
    };
    let op_id = OpId::new(ProcId::new(0, 0), 1);
    let mut actions = vec![Action::Send {
        to: Endpoint::Server(ServerId(1)),
        payload: Payload::LCom { op_id },
    }];
    carry_out(
        &mut ports,
        Endpoint::Proc(ProcId::new(0, 0)),
        None,
        &mut actions,
    );
    ports
}

/// `(drops, delays, dups)` as the host counted them.
fn faults(c: &MsgCounts) -> (u64, u64, u64) {
    (c.drops, c.delays, c.dups)
}

#[test]
fn a_dropped_send_reaches_no_port_but_is_counted() {
    let ports = send_once(MsgFate::Drop);
    assert_eq!(ports.wire, []);
    assert_eq!(ports.sent.get(&MsgKind::LCom), Some(&1), "still a send");
    assert_eq!(ports.sent.client_msgs, 1);
    assert_eq!(faults(&ports.sent), (1, 0, 0));
}

#[test]
fn a_duplicate_sends_the_late_copy_first() {
    let ports = send_once(MsgFate::Duplicate(250_000));
    let late = Lateness {
        wire_ns: 250_000,
        hold_ns: 0,
    };
    assert_eq!(ports.wire, [late, Lateness::default()]);
    assert_eq!(
        ports.sent.get(&MsgKind::LCom),
        Some(&1),
        "one send, two copies"
    );
    assert_eq!(faults(&ports.sent), (0, 0, 1));
}

#[test]
fn a_delay_is_wire_time_and_an_exec_delay_a_hold() {
    let delayed = send_once(MsgFate::Delay(2_000));
    assert_eq!(
        delayed.wire,
        [Lateness {
            wire_ns: 2_000,
            hold_ns: 0
        }]
    );
    assert_eq!(faults(&delayed.sent), (0, 1, 0));
    let held = send_once(MsgFate::ExecDelay(5_000));
    assert_eq!(
        held.wire,
        [Lateness {
            wire_ns: 0,
            hold_ns: 5_000
        }]
    );
    assert_eq!(faults(&held.sent), (0, 1, 0));
}

#[test]
fn a_delivered_send_is_on_time_and_no_fault() {
    let ports = send_once(MsgFate::Deliver);
    assert_eq!(ports.wire, [Lateness::default()]);
    assert_eq!(faults(&ports.sent), (0, 0, 0));
}
