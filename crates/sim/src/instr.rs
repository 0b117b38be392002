//! Instruction-level discrete-event simulation of per-device streams.
//!
//! The back-end of DiffusionPipe (Fig. 7) executes a static list of pipeline
//! instructions on each device. This simulator runs such streams with
//! rendezvous semantics for send/recv and barrier semantics for all-reduce,
//! validating deadlock-freedom and producing per-device timelines that can
//! be checked against the analytic schedule.

use crate::des::{EventQueue, SimError};
use crate::fault::FaultPlan;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One back-end pipeline instruction (paper Fig. 7, right side).
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Local computation for `seconds` (stage forward/backward, frozen
    /// layer execution, or micro-batch load).
    Compute {
        /// A free-form label for traces (e.g. `"fwd s1 mb2"`).
        label: String,
        /// Duration in seconds.
        seconds: f64,
    },
    /// Send `seconds`-worth of data to `peer` under `tag`. Sends are
    /// *eager* (buffered): the sender enqueues the transfer and proceeds
    /// immediately; the data becomes available to the receiver `seconds`
    /// later. This matches NCCL-style buffered p2p and the analytic
    /// schedule's communication-as-delay-edge model.
    Send {
        /// Receiving device index.
        peer: usize,
        /// Match tag (must be unique per (src, dst) pair at any time).
        tag: u64,
        /// Transfer duration in seconds.
        seconds: f64,
    },
    /// Receive from `peer` under `tag`: blocks until the matching eager
    /// `Send`'s data has arrived.
    Recv {
        /// Sending device index.
        peer: usize,
        /// Match tag.
        tag: u64,
    },
    /// All-reduce with every device in `group`; completes `seconds` after
    /// the last participant arrives.
    AllReduce {
        /// Participating device indices (must include this device).
        group: Vec<usize>,
        /// Collective id (participants post the same id).
        id: u64,
        /// Collective duration after the barrier.
        seconds: f64,
    },
}

/// Per-instruction execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionTrace {
    /// Device index.
    pub device: usize,
    /// Position within the device's stream.
    pub index: usize,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrError {
    /// No device could make progress (mismatched send/recv or collective).
    Deadlock {
        /// Devices stuck with unfinished streams.
        stuck_devices: Vec<usize>,
    },
    /// An instruction referenced an out-of-range device.
    BadPeer {
        /// Offending device.
        device: usize,
        /// Referenced peer.
        peer: usize,
    },
    /// An instruction produced a poisoned event time (NaN duration or
    /// similar) that the event queue rejected.
    Sim(SimError),
}

impl From<SimError> for InstrError {
    fn from(e: SimError) -> Self {
        InstrError::Sim(e)
    }
}

impl fmt::Display for InstrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrError::Deadlock { stuck_devices } => {
                write!(
                    f,
                    "instruction streams deadlocked on devices {stuck_devices:?}"
                )
            }
            InstrError::BadPeer { device, peer } => {
                write!(f, "device {device} references invalid peer {peer}")
            }
            InstrError::Sim(e) => write!(f, "event scheduling failed: {e}"),
        }
    }
}

impl Error for InstrError {}

/// Outcome of a fault-injected run.
///
/// Unlike the fault-free [`InstructionSim::run`], an incomplete stream is
/// not automatically an error: devices on dropped machines stop on purpose,
/// and peers blocked on them are *stranded* — both are part of the degraded
/// timeline the caller wants to inspect.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRun {
    /// Per-instruction execution records, sorted by (device, index).
    pub traces: Vec<InstructionTrace>,
    /// Latest completion time across all devices.
    pub makespan: f64,
    /// Devices halted by a node-drop fault.
    pub dropped_devices: Vec<usize>,
    /// Devices blocked forever on a dropped peer (no drop of their own).
    pub stranded_devices: Vec<usize>,
    /// Instructions that executed.
    pub completed_instructions: usize,
    /// Instructions across all streams.
    pub total_instructions: usize,
}

/// Simulates per-device instruction streams to completion.
#[derive(Debug, Default)]
pub struct InstructionSim;

impl InstructionSim {
    /// Runs the streams; returns the trace of every instruction plus the
    /// makespan.
    ///
    /// # Errors
    ///
    /// Returns [`InstrError::Deadlock`] when no device can progress,
    /// [`InstrError::BadPeer`] for out-of-range device references, and
    /// [`InstrError::Sim`] if an instruction produced a poisoned time.
    pub fn run(streams: &[Vec<Instruction>]) -> Result<(Vec<InstructionTrace>, f64), InstrError> {
        let run = Self::run_faulted(streams, &FaultPlan::none())?;
        // With no faults a stalled device is a genuine deadlock.
        if !run.stranded_devices.is_empty() || !run.dropped_devices.is_empty() {
            let mut stuck = run.dropped_devices;
            stuck.extend(run.stranded_devices);
            stuck.sort_unstable();
            return Err(InstrError::Deadlock {
                stuck_devices: stuck,
            });
        }
        Ok((run.traces, run.makespan))
    }

    /// Runs the streams under `plan`, injecting stragglers, degraded links
    /// and node drops. Stream `s` of `streams` is queried against stream
    /// `s` of the plan (compile the plan with the same stream order).
    ///
    /// Fault semantics:
    ///
    /// * **Straggler** — a `Compute` *starting* at time `t` runs for
    ///   `seconds * plan.compute_scale(s, t)`.
    /// * **Degraded link** — a `Send` starting at `t` delivers after
    ///   `plan.transfer_seconds(..)`, which folds in scale and
    ///   deterministic retransmits.
    /// * **Node drop** — a device whose drop time has passed starts no
    ///   further instruction; whatever is in flight (a transfer already
    ///   sent, a compute already begun) completes. Peers blocked on a
    ///   dropped device forever are reported stranded.
    ///
    /// # Errors
    ///
    /// [`InstrError::BadPeer`] for out-of-range device references and
    /// [`InstrError::Sim`] for poisoned times; incomplete streams under
    /// drops are a *result*, not an error.
    pub fn run_faulted(
        streams: &[Vec<Instruction>],
        plan: &FaultPlan,
    ) -> Result<FaultedRun, InstrError> {
        let n = streams.len();
        // Validate peers up front.
        for (d, stream) in streams.iter().enumerate() {
            for ins in stream {
                let peer = match ins {
                    Instruction::Send { peer, .. } | Instruction::Recv { peer, .. } => Some(*peer),
                    Instruction::AllReduce { group, .. } => {
                        group.iter().find(|&&g| g >= n).copied()
                    }
                    Instruction::Compute { .. } => None,
                };
                if let Some(p) = peer {
                    if p >= n {
                        return Err(InstrError::BadPeer { device: d, peer: p });
                    }
                }
            }
        }

        let mut queue: EventQueue<usize> = EventQueue::new(); // device wake-ups
        let mut pc = vec![0usize; n]; // program counter per device
        let mut dev_time = vec![0.0f64; n];
        let mut traces = Vec::new();
        // Rendezvous bookkeeping: (src, dst, tag) -> ready time of the early
        // side.
        let mut pending_send: HashMap<(usize, usize, u64), f64> = HashMap::new();
        let mut pending_recv: HashMap<(usize, usize, u64), f64> = HashMap::new();
        // Collective: id -> (arrived devices, latest arrival)
        let mut collectives: HashMap<u64, (Vec<usize>, f64)> = HashMap::new();

        // Devices that hit their drop gate (started nothing past it).
        let mut dropped = vec![false; n];

        for d in 0..n {
            queue.schedule(0.0, d)?;
        }
        // Blocked devices wait for a matching event; when the match arrives
        // we reschedule them.
        while let Some(ev) = queue.pop() {
            let d = ev.payload;
            if pc[d] >= streams[d].len() || dropped[d] {
                continue;
            }
            let now = dev_time[d].max(ev.time);
            // Node drop: nothing *starts* at or after the drop time; the
            // instruction in flight when the machine died has already been
            // traced and completes.
            if plan.drop_at(d).is_some_and(|t| now >= t - 1e-12) {
                dropped[d] = true;
                continue;
            }
            match &streams[d][pc[d]] {
                Instruction::Compute { seconds, .. } => {
                    let end = now + seconds * plan.compute_scale(d, now);
                    traces.push(InstructionTrace {
                        device: d,
                        index: pc[d],
                        start: now,
                        end,
                    });
                    dev_time[d] = end;
                    pc[d] += 1;
                    queue.schedule(end, d)?;
                }
                Instruction::Send { peer, tag, seconds } => {
                    // Eager send: enqueue the transfer; data arrives after
                    // the (possibly degraded) transfer time. The sender
                    // proceeds immediately.
                    let key = (d, *peer, *tag);
                    let arrival = now + plan.transfer_seconds(d, *peer, now, *seconds, *tag);
                    traces.push(InstructionTrace {
                        device: d,
                        index: pc[d],
                        start: now,
                        end: now,
                    });
                    dev_time[d] = now;
                    pc[d] += 1;
                    queue.schedule(now, d)?;
                    if let Some(recv_posted) = pending_recv.remove(&key) {
                        // The receiver is blocked at its recv; complete it.
                        let end = recv_posted.max(arrival);
                        traces.push(InstructionTrace {
                            device: *peer,
                            index: pc[*peer],
                            start: recv_posted,
                            end,
                        });
                        dev_time[*peer] = dev_time[*peer].max(end);
                        pc[*peer] += 1;
                        queue.schedule(end, *peer)?;
                    } else {
                        pending_send.insert(key, arrival);
                    }
                }
                Instruction::Recv { peer, tag } => {
                    let key = (*peer, d, *tag);
                    if let Some(arrival) = pending_send.remove(&key) {
                        let end = now.max(arrival);
                        traces.push(InstructionTrace {
                            device: d,
                            index: pc[d],
                            start: now,
                            end,
                        });
                        dev_time[d] = end;
                        pc[d] += 1;
                        queue.schedule(end, d)?;
                    } else {
                        pending_recv.insert(key, now);
                        // Blocked: the matching send will wake us.
                    }
                }
                Instruction::AllReduce { group, id, seconds } => {
                    let entry = collectives.entry(*id).or_insert_with(|| (Vec::new(), 0.0));
                    if !entry.0.contains(&d) {
                        entry.0.push(d);
                        entry.1 = entry.1.max(now);
                    }
                    if entry.0.len() == group.len() {
                        let end = entry.1 + seconds;
                        let members = entry.0.clone();
                        collectives.remove(id);
                        for &m in &members {
                            traces.push(InstructionTrace {
                                device: m,
                                index: pc[m],
                                start: now.min(end),
                                end,
                            });
                            dev_time[m] = dev_time[m].max(end);
                            pc[m] += 1;
                            queue.schedule(end, m)?;
                        }
                    }
                    // else: blocked until the last member arrives.
                }
            }
        }

        // Classify unfinished streams: a device halts *dropped* when it hit
        // its own drop gate (or sits blocked with a drop of its own
        // pending); otherwise it is stranded on a dead peer.
        let mut dropped_devices = Vec::new();
        let mut stranded_devices = Vec::new();
        for d in 0..n {
            if pc[d] >= streams[d].len() {
                continue;
            }
            if dropped[d] || plan.drop_at(d).is_some() {
                dropped_devices.push(d);
            } else {
                stranded_devices.push(d);
            }
        }
        let makespan = dev_time.iter().copied().fold(0.0, f64::max);
        traces.sort_by_key(|t| (t.device, t.index));
        Ok(FaultedRun {
            traces,
            makespan,
            dropped_devices,
            stranded_devices,
            completed_instructions: pc.iter().sum(),
            total_instructions: streams.iter().map(Vec::len).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(s: f64) -> Instruction {
        Instruction::Compute {
            label: "c".into(),
            seconds: s,
        }
    }

    #[test]
    fn sequential_compute() {
        let streams = vec![vec![compute(1.0), compute(2.0)]];
        let (traces, makespan) = InstructionSim::run(&streams).unwrap();
        assert_eq!(makespan, 3.0);
        assert_eq!(traces[1].start, 1.0);
    }

    #[test]
    fn send_recv_rendezvous() {
        let streams = vec![
            vec![
                compute(1.0),
                Instruction::Send {
                    peer: 1,
                    tag: 7,
                    seconds: 0.5,
                },
            ],
            vec![Instruction::Recv { peer: 0, tag: 7 }, compute(1.0)],
        ];
        let (traces, makespan) = InstructionSim::run(&streams).unwrap();
        // Transfer starts when both sides ready (t=1), takes 0.5; receiver
        // computes 1.0 after.
        assert!((makespan - 2.5).abs() < 1e-12, "{makespan}");
        let recv_end = traces
            .iter()
            .find(|t| t.device == 1 && t.index == 0)
            .unwrap()
            .end;
        assert!((recv_end - 1.5).abs() < 1e-12);
    }

    #[test]
    fn recv_posted_first_works() {
        let streams = vec![
            vec![Instruction::Recv { peer: 1, tag: 1 }],
            vec![
                compute(2.0),
                Instruction::Send {
                    peer: 0,
                    tag: 1,
                    seconds: 1.0,
                },
            ],
        ];
        let (_, makespan) = InstructionSim::run(&streams).unwrap();
        assert!((makespan - 3.0).abs() < 1e-12);
    }

    #[test]
    fn allreduce_barrier() {
        let group = vec![0, 1, 2];
        let ar = |id| Instruction::AllReduce {
            group: group.clone(),
            id,
            seconds: 0.5,
        };
        let streams = vec![
            vec![compute(1.0), ar(9)],
            vec![compute(3.0), ar(9)],
            vec![ar(9)],
        ];
        let (traces, makespan) = InstructionSim::run(&streams).unwrap();
        // Barrier at t=3 (slowest), +0.5 collective.
        assert!((makespan - 3.5).abs() < 1e-12);
        for t in traces
            .iter()
            .filter(|t| matches!(t.index, 1) || t.device == 2)
        {
            assert!((t.end - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn mismatched_tags_deadlock() {
        let streams = vec![
            vec![Instruction::Send {
                peer: 1,
                tag: 1,
                seconds: 0.1,
            }],
            vec![Instruction::Recv { peer: 0, tag: 2 }],
        ];
        let err = InstructionSim::run(&streams).unwrap_err();
        assert!(matches!(err, InstrError::Deadlock { .. }));
    }

    #[test]
    fn bad_peer_detected() {
        let streams = vec![vec![Instruction::Send {
            peer: 5,
            tag: 0,
            seconds: 0.1,
        }]];
        assert_eq!(
            InstructionSim::run(&streams).unwrap_err(),
            InstrError::BadPeer { device: 0, peer: 5 }
        );
    }

    #[test]
    fn pipeline_staircase_timing() {
        // 2-stage pipeline, 2 micro-batches, fwd only: classic staircase.
        let f = 1.0;
        let mk_tag = |mb: usize| mb as u64;
        let streams = vec![
            vec![
                compute(f),
                Instruction::Send {
                    peer: 1,
                    tag: mk_tag(0),
                    seconds: 0.0,
                },
                compute(f),
                Instruction::Send {
                    peer: 1,
                    tag: mk_tag(1),
                    seconds: 0.0,
                },
            ],
            vec![
                Instruction::Recv {
                    peer: 0,
                    tag: mk_tag(0),
                },
                compute(f),
                Instruction::Recv {
                    peer: 0,
                    tag: mk_tag(1),
                },
                compute(f),
            ],
        ];
        let (_, makespan) = InstructionSim::run(&streams).unwrap();
        assert!((makespan - 3.0).abs() < 1e-12, "{makespan}");
    }

    #[test]
    fn nan_duration_is_a_typed_error_not_a_panic() {
        let streams = vec![vec![compute(f64::NAN)]];
        assert!(matches!(
            InstructionSim::run(&streams).unwrap_err(),
            InstrError::Sim(crate::des::SimError::NonFiniteTime { .. })
        ));
    }

    #[test]
    fn straggler_scales_compute_from_its_start_time() {
        use crate::fault::{FaultPlan, FaultSpec, StragglerFault};
        let streams = vec![vec![compute(1.0), compute(1.0)]];
        let spec = FaultSpec {
            stragglers: vec![StragglerFault {
                device: 0,
                scale: 2.0,
                from: 0.5,
            }],
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec, &[vec![0]], &[0], 0);
        let run = InstructionSim::run_faulted(&streams, &plan).unwrap();
        // First compute starts at 0 (< from): unscaled. Second starts at
        // 1.0 (>= from): doubled.
        assert!((run.makespan - 3.0).abs() < 1e-12, "{}", run.makespan);
        assert!(run.dropped_devices.is_empty() && run.stranded_devices.is_empty());
        assert_eq!(run.completed_instructions, run.total_instructions);
    }

    #[test]
    fn node_drop_halts_device_and_strands_blocked_peer() {
        use crate::fault::{FaultPlan, FaultSpec, NodeDropFault};
        // Device 0 computes then sends; device 1 waits for the message and
        // computes. Machine of device 0 drops before the send can start.
        let streams = vec![
            vec![
                compute(1.0),
                Instruction::Send {
                    peer: 1,
                    tag: 3,
                    seconds: 0.1,
                },
            ],
            vec![Instruction::Recv { peer: 0, tag: 3 }, compute(1.0)],
        ];
        let spec = FaultSpec {
            node_drops: vec![NodeDropFault {
                machine: 0,
                at: 0.5,
            }],
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec, &[vec![0], vec![1]], &[0, 1], 0);
        let run = InstructionSim::run_faulted(&streams, &plan).unwrap();
        // The in-flight compute finishes (makespan 1.0) but the send never
        // starts; device 1 is stranded at its recv.
        assert_eq!(run.dropped_devices, vec![0]);
        assert_eq!(run.stranded_devices, vec![1]);
        assert!((run.makespan - 1.0).abs() < 1e-12, "{}", run.makespan);
        assert_eq!(run.completed_instructions, 1);
        assert_eq!(run.total_instructions, 4);
    }

    #[test]
    fn degraded_link_slows_delivery_not_sender() {
        use crate::fault::{FaultPlan, FaultSpec, LinkFault};
        let streams = vec![
            vec![Instruction::Send {
                peer: 1,
                tag: 0,
                seconds: 0.5,
            }],
            vec![Instruction::Recv { peer: 0, tag: 0 }],
        ];
        let spec = FaultSpec {
            links: vec![LinkFault {
                src_machine: 0,
                dst_machine: 1,
                scale: 3.0,
                loss: 0.0,
                retransmit: 0.0,
                from: 0.0,
                until: None,
            }],
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec, &[vec![0], vec![1]], &[0, 1], 0);
        let run = InstructionSim::run_faulted(&streams, &plan).unwrap();
        assert!((run.makespan - 1.5).abs() < 1e-12, "{}", run.makespan);
    }
}
