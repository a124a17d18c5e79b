//! The replay driver: every public replay method is a thin wrapper that
//! folds a chunk source (resident or streamed) through one job loop under
//! a [`Plan`], on one PC partition ([`shard_of_pc`]), with one merge in
//! (group, unit) order. A bank of configurations replays as groups
//! ([`groups`]): every config [`PredictorConfig::fcm_orders`] made runs as
//! one [`FcmBank`], one context walk per record for all of them, and every
//! other config as a group of one; the merge hands back one report per
//! configuration in bank order. A resident trace is split into [`SHARDS`]
//! shards at any worker count (looked up once per dense id); a streamed
//! container is split into one shard per consumer thread, so each consumer
//! gathers (and interns) its records once per chunk for every model it
//! owns.

use crate::batch::BatchScratch;
use crate::pool::decode_ahead;
use crate::replay::SHARDS;
use crate::shared::ChunkWindow;
use crate::{shard_of_pc, ReplayEngine, SharedTrace};
use dvp_core::{AccuracyTracker, FcmBank, Predictor, PredictorConfig};
use dvp_trace::io::{v2, TraceIoError};
use dvp_trace::{Observer, PcInterner, PhasePlan, TraceRecord};
use std::io::Read;
use std::ops::Range;

/// What a replay observes and tallies.
#[derive(Clone, Copy)]
pub(crate) enum Plan<'a> {
    /// Every record, tallied once; the units are PC shards.
    Full,
    /// One cold job per phase (the units): observe the warmup prefix,
    /// tally the window into that phase's tally.
    Cold(&'a PhasePlan),
    /// Functional warming: observe every record, tally phase *i*'s window
    /// into tally *i*; the units are PC shards.
    Warm(&'a PhasePlan),
}

impl Plan<'_> {
    /// Jobs per model (a cold plan without phases still gets one, so
    /// every configuration reports).
    fn units(self, shards: usize) -> usize {
        match self {
            Plan::Cold(plan) => plan.phases.len().max(1),
            _ => shards,
        }
    }

    /// The record positions job `unit` observes.
    fn observed(self, unit: usize) -> Range<u64> {
        match self {
            Plan::Cold(plan) => plan
                .phases
                .get(unit)
                .map_or(0..0, |p| p.start.saturating_sub(plan.warmup_records)..p.end),
            _ => 0..u64::MAX,
        }
    }

    /// Checks a sampled plan against a trace of `records` records.
    fn check(self, records: u64) -> Result<(), String> {
        let (Plan::Cold(plan) | Plan::Warm(plan)) = self else { return Ok(()) };
        plan.validate().map_err(|e| e.to_string())?;
        match plan.total_records {
            covered if covered == records => Ok(()),
            covered => Err(format!(
                "phase plan covers {covered} records but the trace holds {records} \
                 (it was built for a different trace)"
            )),
        }
    }

    /// Job `unit` of this plan, replaying into `model`; it filters by PC
    /// shard when the plan's units are shards (of more than one).
    fn job<M>(self, unit: usize, shards: usize, model: M) -> Job<M> {
        let shard = (!matches!(self, Plan::Cold(_)) && shards > 1).then_some(unit);
        Job { model, observed: self.observed(unit), shard }
    }

    /// The model of `group` (indices into `bank`, see [`groups`]) as job
    /// `unit`: its replayer, its tallied windows, and the tally index of
    /// the first.
    fn tallied(self, bank: &[PredictorConfig], group: &[usize], unit: usize) -> Tallied {
        let (windows, first, tallies) = match self {
            Plan::Full => (std::iter::once(0..u64::MAX).collect(), 0, 1),
            Plan::Cold(plan) => {
                let window = plan.phases.get(unit).map(|p| p.start..p.end);
                (window.into_iter().collect(), unit, plan.phases.len())
            }
            Plan::Warm(plan) => {
                (plan.phases.iter().map(|p| p.start..p.end).collect(), 0, plan.phases.len())
            }
        };
        let (replayer, columns) = match group {
            [config] => (Replayer::One(bank[*config].build()), vec![0]),
            _ => {
                let order = |&c: &usize| bank[c].fcm_order().expect("a bank groups FCM orders");
                let fcm = FcmBank::new(group.iter().map(order));
                let columns = group
                    .iter()
                    .map(|c| fcm.orders().binary_search(&order(c)).expect("a member's order"))
                    .collect();
                (Replayer::Bank(Box::new(fcm)), columns)
            }
        };
        let tallies = group
            .iter()
            .map(|&c| (bank[c].name().to_owned(), vec![AccuracyTracker::new(); tallies]))
            .collect();
        Tallied { replayer, columns, windows, first, next: 0, tallies }
    }
}

/// The replay groups of `bank`, as config indices: every config
/// [`PredictorConfig::fcm_orders`] made (found by
/// [`PredictorConfig::fcm_order`], never by name) forms one group at the
/// place of its first member when there are two or more of them, and
/// every other config is a group of one.
fn groups(bank: &[PredictorConfig]) -> Vec<Vec<usize>> {
    let fcm: Vec<usize> = (0..bank.len()).filter(|&c| bank[c].fcm_order().is_some()).collect();
    let mut groups = Vec::new();
    for c in 0..bank.len() {
        if fcm.len() < 2 || !fcm.contains(&c) {
            groups.push(vec![c]);
        } else if c == fcm[0] {
            groups.push(fcm.clone());
        }
    }
    groups
}

/// One configuration's name and tallies.
pub(crate) type ConfigTally = (String, Vec<AccuracyTracker>);

/// Reorders per-group reports into one report per configuration, in
/// bank order.
fn in_bank_order(groups: &[Vec<usize>], reports: Vec<Vec<ConfigTally>>) -> Vec<ConfigTally> {
    let mut out: Vec<Option<ConfigTally>> = vec![None; groups.iter().map(Vec::len).sum()];
    for (group, report) in groups.iter().zip(reports) {
        for (&config, tally) in group.iter().zip(report) {
            out[config] = Some(tally);
        }
    }
    out.into_iter().map(|tally| tally.expect("every config is in one group")).collect()
}

/// What one replay job feeds, what it reports, and how two units'
/// reports merge.
pub(crate) trait Model: Send + Sized {
    /// What a finished job reports.
    type Tally: Send;
    /// Replays one gathered batch.
    fn feed(&mut self, batch: &mut BatchScratch);
    /// Drops the job's replay state, keeping its report.
    fn finish(self) -> Self::Tally;
    /// Folds another unit's report for the same model into `into`.
    fn merge(into: &mut Self::Tally, from: Self::Tally);
}

/// What a group replays: one predictor, or an FCM bank with one hit
/// column per member.
enum Replayer {
    One(Box<dyn Predictor>),
    Bank(Box<FcmBank>),
}

/// One group of predictors, tallying the outcomes that fall inside its
/// windows.
pub(crate) struct Tallied {
    replayer: Replayer,
    /// Each config's hit column in the replayer's output.
    columns: Vec<usize>,
    /// Ascending position ranges; window `i` tallies into
    /// `tallies[first + i]` of every config.
    windows: Vec<Range<u64>>,
    first: usize,
    /// Phase cursor: the first window not yet behind the positions fed.
    next: usize,
    /// Each config's name and the job's tallies, in group order.
    tallies: Vec<ConfigTally>,
}

impl Model for Tallied {
    type Tally = Vec<ConfigTally>;

    fn feed(&mut self, batch: &mut BatchScratch) {
        let (base, offsets, categories, correct) = match &mut self.replayer {
            Replayer::One(predictor) => batch.observe(predictor.as_mut()),
            Replayer::Bank(fcm) => batch.observe_bank(fcm),
        };
        let n = offsets.len();
        let before = |pos: u64| move |&at: &u32| base + u64::from(at) < pos;
        let mut from = 0;
        // Outcomes are in position order: walk them one window at a time,
        // tallying every config's column of each.
        while let Some(window) = self.windows.get(self.next) {
            let end = from + offsets[from..].partition_point(before(window.end));
            let start = from + offsets[from..end].partition_point(before(window.start));
            for (&column, (_, tallies)) in self.columns.iter().zip(&mut self.tallies) {
                let tally = &mut tallies[self.first + self.next];
                let hits = &correct[column * n..][start..end];
                for (&category, &hit) in categories[start..end].iter().zip(hits) {
                    tally.record(category, hit);
                }
            }
            if end == n {
                break;
            }
            (from, self.next) = (end, self.next + 1);
        }
    }

    fn finish(self) -> Self::Tally {
        self.tallies
    }

    fn merge(into: &mut Self::Tally, from: Self::Tally) {
        for ((_, into), (_, from)) in into.iter_mut().zip(&from) {
            for (into, from) in into.iter_mut().zip(from) {
                into.merge(from);
            }
        }
    }
}

/// An observer (a correlated predictor set, a per-instruction profile)
/// folds the batch's columns and is its own report.
impl<O: Observer + Send> Model for O {
    type Tally = O;

    fn feed(&mut self, batch: &mut BatchScratch) {
        batch.observe_into(self);
    }

    fn finish(self) -> Self::Tally {
        self
    }

    fn merge(into: &mut Self::Tally, from: Self::Tally) {
        into.merge(from);
    }
}

/// One job: a model plus the part of the trace it observes.
struct Job<M> {
    model: M,
    observed: Range<u64>,
    /// The PC shard this job owns, when the plan partitions by PC.
    shard: Option<usize>,
}

impl<M> Job<M> {
    /// The span of a `len`-record chunk at position `base` this job reads.
    fn span(&self, base: u64, len: usize) -> Range<usize> {
        let clamp = |pos: u64| (pos.clamp(base, base + len as u64) - base) as usize;
        clamp(self.observed.start)..clamp(self.observed.end)
    }
}

/// Folds each run of `units` consecutive job reports (one model's units,
/// in unit order) into one.
fn merge<M: Model>(tallies: impl IntoIterator<Item = M::Tally>, units: usize) -> Vec<M::Tally> {
    let mut merged: Vec<M::Tally> = Vec::new();
    for (job, tally) in tallies.into_iter().enumerate() {
        match merged.last_mut() {
            Some(into) if job % units != 0 => M::merge(into, tally),
            _ => merged.push(tally),
        }
    }
    merged
}

/// Reads, verifies and decodes the container's chunks in order into
/// `window`, tagged with their global record base, through one reused
/// payload buffer; chunks no job observes are read past undecoded. The
/// trailing sections are validated last.
fn produce<R: Read>(
    reader: &mut R,
    header: &v2::Header,
    plan: Plan<'_>,
    window: &ChunkWindow<(u64, Vec<TraceRecord>)>,
) -> Result<(), TraceIoError> {
    let mut payload = Vec::new();
    let mut base = 0u64;
    for (index, info) in header.chunks.iter().enumerate() {
        payload.clear();
        reader.by_ref().take(u64::from(info.len)).read_to_end(&mut payload)?;
        if payload.len() != info.len as usize {
            return Err(TraceIoError::Format {
                message: format!(
                    "payload ends inside chunk {index} (wanted {} bytes at payload offset {})",
                    info.len, info.offset
                ),
            });
        }
        let end = base + u64::from(info.records);
        if (0..plan.units(1))
            .map(|unit| plan.observed(unit))
            .any(|seen| seen.start < end && base < seen.end)
        {
            window.push((base, v2::decode_chunk(&payload, info)?));
        }
        base = end;
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest)?;
    v2::validate_trailing(&rest)?;
    Ok(())
}

impl ReplayEngine {
    /// Replays a resident trace under `plan`: one job per (model, unit)
    /// on the worker pool, `make(model, unit)` building each job's model,
    /// so a worker holds one model's state at a time. Returns one merged
    /// report per model.
    ///
    /// # Panics
    ///
    /// Panics if [`Plan::check`] rejects the plan for the trace.
    pub(crate) fn drive<M, F>(
        &self,
        trace: &SharedTrace,
        plan: Plan<'_>,
        models: usize,
        make: F,
    ) -> Vec<M::Tally>
    where
        M: Model,
        F: Fn(usize, usize) -> M + Sync,
    {
        plan.check(trace.len() as u64).unwrap_or_else(|e| panic!("{e}"));
        let units = plan.units(SHARDS);
        let shard_of: Vec<usize> =
            trace.interner().pcs().iter().map(|&pc| shard_of_pc(pc, SHARDS)).collect();
        let reports = self.map((0..models * units).collect(), |j| {
            let mut job = plan.job(j % units, SHARDS, make(j / units, j % units));
            let mut scratch = BatchScratch::default();
            let mut base = 0u64;
            for (records, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
                let span = job.span(base, records.len());
                let shard = job.shard.map(|s| (shard_of.as_slice(), s));
                let at = base + span.start as u64;
                scratch.gather(at, &records[span.clone()], &ids[span], shard);
                job.model.feed(&mut scratch);
                base += records.len() as u64;
            }
            job.model.finish()
        });
        merge::<M>(reports, units)
    }

    /// Replays `bank` over a resident trace under `plan`, one job per
    /// ([`groups`] member, unit). Returns one merged report per
    /// configuration, in bank order.
    pub(crate) fn drive_bank(
        &self,
        trace: &SharedTrace,
        plan: Plan<'_>,
        bank: &[PredictorConfig],
    ) -> Vec<ConfigTally> {
        let groups = groups(bank);
        let make = |g: usize, u| plan.tallied(bank, &groups[g], u);
        in_bank_order(&groups, self.drive(trace, plan, groups.len(), make))
    }

    /// [`drive_bank`](ReplayEngine::drive_bank) over a streamed container.
    ///
    /// # Errors
    ///
    /// As [`drive_stream`](ReplayEngine::drive_stream).
    pub(crate) fn drive_bank_stream<R: Read>(
        &self,
        reader: R,
        plan: Plan<'_>,
        bank: &[PredictorConfig],
    ) -> Result<(v2::Header, Vec<ConfigTally>), TraceIoError> {
        let groups = groups(bank);
        let make = |g: usize, u| plan.tallied(bank, &groups[g], u);
        let (header, reports) = self.drive_stream(reader, plan, groups.len(), make)?;
        Ok((header, in_bank_order(&groups, reports)))
    }

    /// Replays a container streaming under `plan`: the calling thread
    /// produces chunks into the bounded window while each consumer folds
    /// every chunk into the jobs it owns. Job `j` (model-major) belongs to
    /// consumer `j % consumers`; when the plan's units are PC shards there
    /// is one shard per consumer, so consumer `c` owns shard `c` of every
    /// model. A consumer gathers a chunk once for
    /// each run of owned jobs with the same span and shard (one run per
    /// chunk for shard units), interning only the records it selects into
    /// its own interner, and feeds every job of the run from that batch.
    /// Returns one merged report per model.
    ///
    /// # Errors
    ///
    /// A malformed header, a plan [`Plan::check`] rejects, or any
    /// [`produce`] error; partial results are discarded.
    pub(crate) fn drive_stream<R, M, F>(
        &self,
        mut reader: R,
        plan: Plan<'_>,
        models: usize,
        make: F,
    ) -> Result<(v2::Header, Vec<M::Tally>), TraceIoError>
    where
        R: Read,
        M: Model,
        F: Fn(usize, usize) -> M + Sync,
    {
        let header = v2::read_header(&mut reader)?;
        plan.check(header.record_count).map_err(|message| TraceIoError::Format { message })?;
        let consumers = self.workers().min(models * plan.units(self.workers()));
        let units = plan.units(consumers);
        let jobs = models * units;
        let folded = decode_ahead(
            self.chunk_window(),
            consumers,
            |window| produce(&mut reader, &header, plan, window),
            |window, consumer| {
                let mut owned: Vec<Job<M>> = (consumer..jobs)
                    .step_by(consumers)
                    .map(|j| plan.job(j % units, consumers, make(j / units, j % units)))
                    .collect();
                let mut interner = PcInterner::new();
                let mut scratch = BatchScratch::default();
                while let Some(chunk) = window.next(consumer) {
                    let (base, records) = &*chunk;
                    let mut gathered = None;
                    for job in &mut owned {
                        let selection = (job.span(*base, records.len()), job.shard);
                        if gathered.as_ref() != Some(&selection) {
                            let (span, shard) = &selection;
                            let at = base + span.start as u64;
                            let shard = shard.map(|s| (consumers, s));
                            scratch.gather_interning(
                                at,
                                &records[span.clone()],
                                &mut interner,
                                shard,
                            );
                            gathered = Some(selection);
                        }
                        job.model.feed(&mut scratch);
                    }
                }
                owned.into_iter().map(|job| job.model.finish()).collect::<Vec<_>>()
            },
        )?;
        // Consumer `c` reported jobs `c, c + consumers, …` in order.
        let mut folded: Vec<_> = folded.into_iter().map(Vec::into_iter).collect();
        let reports = (0..jobs).map(|j| folded[j % consumers].next().expect("one report per job"));
        Ok((header, merge::<M>(reports, units)))
    }
}

#[cfg(test)]
mod tests {
    use crate::{phase_plan, ConfigReplay, PhaseOptions, ReplayEngine, SampledReplay, SharedTrace};
    use dvp_core::{AccuracyTracker, Blending, FcmPredictor, Predictor, PredictorConfig};
    use dvp_trace::io::v2;
    use dvp_trace::{InstrCategory, Pc, PhasePlan, TraceRecord};
    use std::ops::Range;

    /// Two regimes over 7 PCs: a four-value alphabet in a scrambled
    /// order, where FCM orders 1, 2 and 3 each hit a different number of
    /// records, then strides.
    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let category =
                    if i % 2 == 0 { InstrCategory::Loads } else { InstrCategory::AddSub };
                let noisy = ((i / 7) % 61).wrapping_mul(2_654_435_761) >> 11;
                let value = if i < n / 2 { noisy % 4 } else { (i / 7) * 3 };
                TraceRecord::new(Pc(0x40_0000 + 4 * (i % 7)), category, value)
            })
            .collect()
    }

    /// Per config, per tally, per category: (correct, predicted).
    type Surface = Vec<(String, Vec<Vec<(u64, u64)>>)>;

    fn surface<'a>(rows: impl IntoIterator<Item = (&'a str, &'a [AccuracyTracker])>) -> Surface {
        rows.into_iter()
            .map(|(name, tallies)| {
                let per_tally = tallies
                    .iter()
                    .map(|t| {
                        InstrCategory::ALL
                            .into_iter()
                            .map(Some)
                            .chain([None])
                            .map(|c| (t.correct(c), t.predicted(c)))
                            .collect()
                    })
                    .collect();
                (name.to_owned(), per_tally)
            })
            .collect()
    }

    fn full(replays: &[ConfigReplay]) -> Surface {
        surface(replays.iter().map(|r| (r.name.as_str(), std::slice::from_ref(&r.tracker))))
    }

    fn sampled(replays: &[SampledReplay]) -> Surface {
        surface(replays.iter().map(|r| (r.name.as_str(), r.phases.as_slice())))
    }

    #[derive(Clone, Copy, Debug)]
    enum Source {
        Resident,
        Stored,
        Compressed,
    }

    #[derive(Clone, Copy, Debug)]
    enum Mode {
        Full,
        Cold,
        Warm,
    }

    /// The paper bank, and an interleaved bank whose FCM orders replay as
    /// one group around two configs of their own, plus a custom factory
    /// named `fcm2` (a single-order model) that must not join the group.
    fn banks() -> [Vec<PredictorConfig>; 2] {
        let fcm = |k| PredictorConfig::fcm_orders([k]).remove(0);
        let impostor = PredictorConfig::new("fcm2", || {
            Box::new(FcmPredictor::with_config(2, Blending::SingleOrder))
        });
        let paper = PredictorConfig::paper_bank();
        let interleaved =
            vec![fcm(3), paper[0].clone(), fcm(1), paper[1].clone(), fcm(2), impostor];
        [paper, interleaved]
    }

    #[test]
    fn fcm_orders_group_by_order_not_by_name() {
        let [paper, interleaved] = banks();
        assert_eq!(super::groups(&paper), [vec![0], vec![1], vec![2, 3, 4]]);
        assert_eq!(super::groups(&interleaved), [vec![0, 2, 4], vec![1], vec![3], vec![5]]);
        let lone = PredictorConfig::fcm_orders([2]);
        assert_eq!(super::groups(&lone), [vec![0]]);
    }

    fn run(
        engine: &ReplayEngine,
        source: Source,
        mode: Mode,
        trace: &SharedTrace,
        containers: (&[u8], &[u8]),
        plan: &PhasePlan,
        bank: &[PredictorConfig],
    ) -> Surface {
        let bytes = match source {
            Source::Resident => {
                return match mode {
                    Mode::Full => full(&engine.replay(trace, bank)),
                    Mode::Cold => sampled(&engine.replay_sampled(trace, bank, plan)),
                    Mode::Warm => sampled(&engine.replay_sampled_warm(trace, bank, plan)),
                }
            }
            Source::Stored => containers.0,
            Source::Compressed => containers.1,
        };
        let (header, surface) = match mode {
            Mode::Full => engine.replay_streaming(bytes, bank).map(|(h, r)| (h, full(&r))),
            Mode::Cold => {
                engine.replay_sampled_streaming(bytes, bank, plan).map(|(h, r)| (h, sampled(&r)))
            }
            Mode::Warm => engine
                .replay_sampled_warm_streaming(bytes, bank, plan)
                .map(|(h, r)| (h, sampled(&r))),
        }
        .expect("streams");
        assert_eq!(header.record_count, trace.len() as u64);
        surface
    }

    /// A bank folded by hand, one lone predictor pass per configuration
    /// (per phase for a cold plan) over the whole trace, with no partition
    /// and no grouping: the reference every engine, source and plan must
    /// reproduce, in bank order.
    fn one_pass(
        trace: &SharedTrace,
        mode: Mode,
        plan: &PhasePlan,
        bank: &[PredictorConfig],
    ) -> Surface {
        let windows: Vec<Range<u64>> = match mode {
            Mode::Full => std::iter::once(0..u64::MAX).collect(),
            Mode::Cold | Mode::Warm => plan.phases.iter().map(|p| p.start..p.end).collect(),
        };
        // Each pass: the positions its predictor observes, and the windows
        // it tallies.
        let passes: Vec<(Range<u64>, Vec<usize>)> = match mode {
            Mode::Full | Mode::Warm => vec![(0..u64::MAX, (0..windows.len()).collect())],
            Mode::Cold => plan
                .phases
                .iter()
                .enumerate()
                .map(|(i, p)| (p.start.saturating_sub(plan.warmup_records)..p.end, vec![i]))
                .collect(),
        };
        let rows = bank
            .iter()
            .map(|config| {
                let mut tallies = vec![AccuracyTracker::new(); windows.len()];
                for (observed, tallied) in &passes {
                    let mut predictor = config.build();
                    for (at, (rec, id)) in (0u64..).zip(trace.iter_with_ids()) {
                        if !observed.contains(&at) {
                            continue;
                        }
                        let hit = predictor.step(id, rec.pc, rec.value) == Some(rec.value);
                        for &w in tallied.iter().filter(|&&w| windows[w].contains(&at)) {
                            tallies[w].record(rec.category, hit);
                        }
                    }
                }
                (config.name().to_owned(), tallies)
            })
            .collect::<Vec<_>>();
        surface(rows.iter().map(|(name, tallies)| (name.as_str(), tallies.as_slice())))
    }

    #[test]
    fn every_source_plan_and_worker_count_matches_one_pass() {
        let records = records(30_000);
        let meta = v2::TraceMeta::default();
        let mut stored = Vec::new();
        v2::write_with_sections(&mut stored, &meta, records.chunks(2048), &[]).expect("writes");
        let mut compressed = Vec::new();
        v2::write_compressed(&mut compressed, &meta, records.chunks(2048), &[]).expect("writes");
        let trace = SharedTrace::from_records(records);
        let options = PhaseOptions { window_records: 512, clusters: 4, ..PhaseOptions::default() };
        let plan = phase_plan(&trace, &options);
        let containers = (stored.as_slice(), compressed.as_slice());
        // Streaming shards by consumer (one per worker), resident replay
        // into the engine's fixed shards: only the former varies here.
        let engines: Vec<ReplayEngine> = [1, 2, 3, 5]
            .into_iter()
            .map(|workers| ReplayEngine::new().with_workers(workers).with_chunk_window(2))
            .chain([ReplayEngine::sequential()])
            .collect();
        for bank in banks() {
            for mode in [Mode::Full, Mode::Cold, Mode::Warm] {
                let reference = one_pass(&trace, mode, &plan, &bank);
                // Swapped bank members would show.
                let fcm: Vec<_> =
                    reference.iter().filter(|(name, _)| name.starts_with("fcm")).collect();
                for (i, a) in fcm.iter().enumerate() {
                    assert!(fcm[i + 1..].iter().all(|b| a.1 != b.1), "{mode:?}: {} ties", a.0);
                }
                for source in [Source::Resident, Source::Stored, Source::Compressed] {
                    for engine in &engines {
                        assert_eq!(
                            run(engine, source, mode, &trace, containers, &plan, &bank),
                            reference,
                            "{source:?} {mode:?} {engine:?}"
                        );
                    }
                }
            }
        }
    }
}
