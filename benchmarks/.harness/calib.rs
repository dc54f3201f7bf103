//! Host times at a reference clock speed.
//!
//! The sizing box runs in two speed modes that last seconds at a time: its
//! base clock most of the time, ~1.25x faster when the host lets it boost.
//! Every workload speeds up by the same factor, and so does any pure-CPU
//! loop. So each timed section runs between two timings of a fixed kernel,
//! and its host time is scaled to what it would have been at the clock
//! speed at which the kernel takes [`REF_SECS`]. On the sizing box this
//! took the spread between 10 s windows of one workload's median round time
//! from 4.4% to 1.0% (README "Steadiness"). What is left is the host's
//! contention, which only ever adds time: hence `round_ms_p10`.

use std::hint::black_box;
use std::time::Instant;

/// What [`kernel_secs`] takes on the sizing box at its base clock.
pub const REF_SECS: f64 = 250e-6;

/// Times a fixed latency-bound kernel: one dependent chain of shifts, xors
/// and a multiply, no memory traffic, so it tracks the core clock only.
/// The fastest of three timings, so that being descheduled during one of
/// them does not read as a slow clock.
pub fn kernel_secs() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..133_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h = (h ^ (x & 0xff)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            black_box((x, h));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timed section.
pub struct Timed<R> {
    pub out: R,
    /// Host seconds scaled to the reference clock speed.
    pub secs: f64,
    /// Reference kernel time over measured kernel time: 1.0 at the sizing
    /// box's base clock, above it when the host runs faster.
    pub speed: f64,
}

/// Runs `f` between two kernel timings.
pub fn timed<R>(f: impl FnOnce() -> R) -> Timed<R> {
    let before = kernel_secs();
    let t = Instant::now();
    let out = f();
    let raw = t.elapsed().as_secs_f64();
    let speed = REF_SECS / ((before + kernel_secs()) / 2.0);
    Timed {
        out,
        secs: raw * speed,
        speed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_time_is_raw_time_times_speed() {
        let t = timed(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(t.speed > 0.0);
        let raw = t.secs / t.speed;
        assert!((0.02..0.2).contains(&raw), "slept {raw} s");
    }
}
