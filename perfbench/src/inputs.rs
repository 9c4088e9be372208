//! Workload inputs, generated from the run's seed before any timing starts.
//!
//! Every input is the bytes a user would hand the program: CSV traces for the
//! learner, protocol lines or a raw CSV stream for the server.

use tracelearn_workloads::{Prng, Workload};

use crate::gates::StreamExpect;

/// Traces learned per `learn_sat` pass, at the paper's length.
const SAT_TRACES: usize = 8;
pub const SAT_TRACE_ROWS: usize = 259;
/// Rows of the `learn_stream` trace.
pub const STREAM_ROWS: usize = 2_000_000;
/// `serve_mux`: tenants × streams per tenant, and events per stream.
const TENANTS: usize = 8;
const STREAMS_PER_TENANT: usize = 8;
const MUX_EVENTS: usize = 20_000;
/// Event swaps injected into each swapped `serve_mux` stream.
const SWAPS: usize = 12;
/// Events of the `serve_pipe` stream.
const PIPE_EVENTS: usize = 2_000_000;

/// A 64-bit mix of the run seed with coordinates, so each input has its own
/// independent seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn csv(workload: Workload, rows: usize, seed: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    workload
        .write_csv(rows, seed, &mut bytes)
        .expect("writing to memory cannot fail");
    bytes
}

/// The simulation seed of `learn_sat` trace `i` of `pass`.
pub fn sat_trace_seed(seed: u64, pass: u64, i: u64) -> u64 {
    mix(seed, 1 + pass, i)
}

/// The `learn_sat` traces of one pass.
pub fn sat_batch(seed: u64, pass: u64) -> Vec<Vec<u8>> {
    (0..SAT_TRACES as u64)
        .map(|i| {
            csv(
                Workload::UsbAttach,
                SAT_TRACE_ROWS,
                sat_trace_seed(seed, pass, i),
            )
        })
        .collect()
}

/// One served stream: its name, registry model and CSV document.
#[derive(Debug, Clone)]
pub struct Stream {
    pub name: String,
    pub model: String,
    pub csv: Vec<u8>,
    pub swapped: bool,
}

impl Stream {
    pub fn events(&self) -> usize {
        self.csv.iter().filter(|&&byte| byte == b'\n').count() - 1
    }
}

/// Swaps `swaps` random pairs of adjacent, differing records (never the
/// header), so the stream departs from the modelled behaviour.
fn swap_events(csv: &[u8], swaps: usize, seed: u64) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = csv.split_inclusive(|&byte| byte == b'\n').collect();
    let mut prng = Prng::new(seed);
    let mut done = 0;
    while done < swaps {
        let at = 1 + prng.below(lines.len() as u64 - 2) as usize;
        if lines[at] != lines[at + 1] {
            lines.swap(at, at + 1);
            done += 1;
        }
    }
    lines.concat()
}

/// The 64 `serve_mux` streams `t<i>/s<j>`: even streams against the
/// `linux_kernel` model, odd ones against `usb_attach`, and a quarter of
/// them (one of each model per 8) carrying event swaps.
pub fn mux_streams(seed: u64) -> Vec<Stream> {
    (0..TENANTS * STREAMS_PER_TENANT)
        .map(|k| {
            let (workload, model) = if k % 2 == 0 {
                (Workload::LinuxKernel, "lk")
            } else {
                (Workload::UsbAttach, "ua")
            };
            let stream_seed = mix(seed, 100, k as u64);
            let clean = csv(workload, MUX_EVENTS, stream_seed);
            let swapped = matches!(k % 8, 2 | 5);
            Stream {
                name: format!("t{}/s{}", k / STREAMS_PER_TENANT, k % STREAMS_PER_TENANT),
                model: model.to_string(),
                csv: if swapped {
                    swap_events(&clean, SWAPS, stream_seed ^ 1)
                } else {
                    clean
                },
                swapped,
            }
        })
        .collect()
}

/// The single `serve_pipe` stream.
pub fn pipe_stream(seed: u64) -> Stream {
    Stream {
        name: "pipe".to_string(),
        model: "ua".to_string(),
        csv: csv(Workload::UsbAttach, PIPE_EVENTS, mix(seed, 200, 0)),
        swapped: false,
    }
}

/// The multiplexed protocol document: every stream opened, their records
/// interleaved round-robin, every stream closed. Returns the document and,
/// per stream, the expectation its output is checked against (event line
/// indices included, for the open loop's due times).
pub fn protocol(streams: &[Stream]) -> (Vec<u8>, Vec<StreamExpect>) {
    let mut doc = Vec::new();
    let mut line = 0u32;
    let mut expected: Vec<StreamExpect> = streams.iter().map(expect).collect();
    for stream in streams {
        doc.extend_from_slice(format!("open {} {}\n", stream.name, stream.model).as_bytes());
        line += 1;
    }
    let mut records: Vec<_> = streams
        .iter()
        .map(|stream| {
            stream
                .csv
                .split_inclusive(|&byte| byte == b'\n')
                .enumerate()
        })
        .collect();
    loop {
        let mut any = false;
        for (i, records) in records.iter_mut().enumerate() {
            if let Some((index, record)) = records.next() {
                doc.extend_from_slice(b"data ");
                doc.extend_from_slice(streams[i].name.as_bytes());
                doc.push(b' ');
                doc.extend_from_slice(record);
                if index > 0 {
                    expected[i].lines.push(line);
                }
                line += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    for stream in streams {
        doc.extend_from_slice(format!("close {}\n", stream.name).as_bytes());
    }
    (doc, expected)
}

/// What one stream's output must contain (event line indices left empty).
fn expect(stream: &Stream) -> StreamExpect {
    StreamExpect {
        name: stream.name.clone(),
        events: stream.events() as u64,
        lines: Vec::new(),
        swapped: stream.swapped,
    }
}

/// The expectation for one stream served raw: event `k` is line `k`.
pub fn raw_expect(stream: &Stream) -> StreamExpect {
    let mut expected = expect(stream);
    expected.lines = (1..=expected.events as u32).collect();
    expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(sat_batch(5, 0), sat_batch(5, 0));
        assert_ne!(sat_batch(5, 0), sat_batch(6, 0));
        assert_ne!(sat_batch(5, 0), sat_batch(5, 1));
    }

    #[test]
    fn swaps_keep_the_multiset_of_records() {
        let clean = csv(Workload::UsbAttach, 500, 9);
        let swapped = swap_events(&clean, SWAPS, 3);
        assert_ne!(clean, swapped);
        let sorted = |bytes: &[u8]| {
            let mut lines: Vec<Vec<u8>> = bytes
                .split_inclusive(|&b| b == b'\n')
                .map(<[u8]>::to_vec)
                .collect();
            lines.sort();
            lines
        };
        assert_eq!(sorted(&clean), sorted(&swapped));
        assert_eq!(
            clean.split(|&b| b == b'\n').next(),
            swapped.split(|&b| b == b'\n').next()
        );
    }

    #[test]
    fn protocol_interleaves_and_indexes_event_lines() {
        let streams = vec![
            Stream {
                name: "a".into(),
                model: "m".into(),
                csv: b"ev\nx\ny\n".to_vec(),
                swapped: false,
            },
            Stream {
                name: "b".into(),
                model: "m".into(),
                csv: b"ev\nz\n".to_vec(),
                swapped: true,
            },
        ];
        let (doc, expected) = protocol(&streams);
        let text = String::from_utf8(doc).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "open a m",
                "open b m",
                "data a ev",
                "data b ev",
                "data a x",
                "data b z",
                "data a y",
                "close a",
                "close b"
            ]
        );
        assert_eq!(expected[0].lines, vec![4, 6]);
        assert_eq!(expected[1].lines, vec![5]);
        assert_eq!(expected[0].events, 2);
        assert!(expected[1].swapped);
    }
}
