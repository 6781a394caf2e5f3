//! Adversarial workload for the **weighted** max flow time objective
//! `max wᵢ·Fᵢ` (Azar–Touitou, arXiv:1712.10273).
//!
//! Each round releases a burst of `lights` unit tasks of weight 1
//! followed by one unit task of weight `heavy_weight`, all at the same
//! integer instant on an unrestricted cluster. A weight-oblivious
//! immediate dispatcher (plain EFT) balances the lights across *all*
//! machines, so the heavy arrival — dispatched last — starts behind a
//! `lights/m` stack and pays `heavy_weight · (lights/m + 1)` weighted
//! flow. The weighted-EFT packing rule `weft@θ`
//! ([`weighted`](flowsched_algos::weighted)) instead parks lights on
//! already-loaded machines within their generous `slack/1` budget,
//! keeping an idle machine in reserve; the heavy task's tight
//! `slack/heavy_weight` budget then claims that reserve and its
//! weighted flow stays near `heavy_weight`. Rounds are spaced far
//! enough apart (`lights + 2`) that every round drains before the next,
//! so the gap repeats identically and the stream's ratio does not
//! depend on the round count.

use flowsched_core::compact::ProcSetRef;
use flowsched_core::procset::ProcSet;
use flowsched_core::stream::ArrivalStream;
use flowsched_core::task::Task;
use flowsched_core::time::Time;

/// The light-burst-then-heavy adversarial stream (module docs).
#[derive(Debug, Clone)]
pub struct WeightedBurstStream {
    full: ProcSet,
    m: usize,
    lights: usize,
    heavy_weight: Time,
    rounds: usize,
    /// Integer spacing between rounds — wide enough to drain.
    gap: usize,
    round: usize,
    i: usize,
}

impl WeightedBurstStream {
    /// `rounds` rounds of `lights` weight-1 unit tasks followed by one
    /// unit task of weight `heavy_weight`, over `m` unrestricted
    /// machines.
    ///
    /// # Panics
    /// Panics when `m == 0`, `lights == 0`, or `heavy_weight < 1`.
    pub fn new(m: usize, lights: usize, heavy_weight: Time, rounds: usize) -> Self {
        assert!(m > 0, "need at least one machine");
        assert!(lights > 0, "a round needs at least one light task");
        assert!(
            heavy_weight >= 1.0,
            "the heavy task must outweigh the lights"
        );
        WeightedBurstStream {
            full: ProcSet::full(m),
            m,
            lights,
            heavy_weight,
            rounds,
            gap: lights + 2,
            round: 0,
            i: 0,
        }
    }

    /// Tasks per round (the lights plus the heavy closer).
    pub fn round_len(&self) -> usize {
        self.lights + 1
    }
}

impl ArrivalStream for WeightedBurstStream {
    fn machines(&self) -> usize {
        self.m
    }

    fn next_arrival(&mut self) -> Option<(Task, ProcSetRef<'_>)> {
        if self.round >= self.rounds {
            return None;
        }
        let release = (self.round * self.gap) as Time;
        let task = if self.i < self.lights {
            Task::unit(release)
        } else {
            Task::unit(release).with_weight(self.heavy_weight)
        };
        self.i += 1;
        if self.i == self.round_len() {
            self.i = 0;
            self.round += 1;
        }
        Some((task, self.full.compact_view(self.m)))
    }

    fn len_hint(&self) -> Option<usize> {
        Some((self.rounds - self.round) * self.round_len() - self.i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowsched_algos::eft::{EftState, ImmediateDispatcher};
    use flowsched_algos::registry::{PolicyId, PolicySpec};
    use flowsched_algos::tiebreak::TieBreak;

    /// Drives a dispatcher over the stream, returning `max wᵢ·Fᵢ`.
    fn weighted_fmax<D: ImmediateDispatcher>(mut stream: WeightedBurstStream, d: &mut D) -> f64 {
        let mut worst: f64 = 0.0;
        while let Some((task, set)) = stream.next_arrival() {
            let a = d.dispatch_task(task, set);
            worst = worst.max(task.weight * (a.start + task.ptime - task.release));
        }
        worst
    }

    #[test]
    fn stream_shape_and_hint() {
        let mut s = WeightedBurstStream::new(4, 8, 16.0, 3);
        assert_eq!(s.len_hint(), Some(27));
        let mut weights = Vec::new();
        let mut releases = Vec::new();
        while let Some((task, set)) = s.next_arrival() {
            assert_eq!(set.len(), 4);
            weights.push(task.weight);
            releases.push(task.release);
        }
        assert_eq!(weights.len(), 27);
        // Each round: 8 lights then the heavy closer.
        assert!(weights[..8].iter().all(|&w| w == 1.0));
        assert_eq!(weights[8], 16.0);
        // Rounds drain before the next burst (gap = lights + 2).
        assert_eq!(releases[9], 10.0);
    }

    #[test]
    fn punishes_weight_oblivious_eft() {
        // The adversarial gap this stream exists to exhibit: plain EFT's
        // weighted Fmax strictly exceeds weighted-EFT's on every round.
        let (m, lights, w) = (4usize, 8usize, 16.0);
        let stream = || WeightedBurstStream::new(m, lights, w, 5);
        let mut eft = EftState::new(m, TieBreak::Min);
        let oblivious = weighted_fmax(stream(), &mut eft);
        // Slack covers the light stack so lights pack; the heavy's
        // budget slack/w is tight and takes the reserved idle machine.
        let tie = TieBreak::Min;
        let slack = lights as f64;
        let mut weft = PolicySpec::new(PolicyId::WeightedEft { tie, slack }).build(m);
        let aware = weighted_fmax(stream(), &mut weft);
        // EFT balances: heavy starts behind lights/m = 2 → 16·3 = 48.
        assert_eq!(oblivious, 48.0);
        // Weighted-EFT keeps a reserve: heavy flows 1 → 16; lights
        // stack within their slack budget (flow ≤ lights/(m−1)+1).
        assert!(aware < oblivious, "aware {aware} vs oblivious {oblivious}");
        assert!(aware <= w + lights as f64);
    }
}
