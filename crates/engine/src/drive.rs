//! The replay driver: every public replay method is a thin wrapper that
//! folds a chunk source (resident or streamed) through one job loop under
//! a [`Plan`], with one merge in job order. A bank of configurations
//! replays as groups ([`groups`]), read off one built instance of each
//! config, never its name: every lazy-exclusion FCM
//! ([`Predictor::bank_form`]) runs as one member of one [`FcmBank`], one
//! context walk per record for all of them, and every stride/FCM hybrid
//! of an order the bank has joins that job too: its own two-delta stride
//! steps on the same records, and its hits are the [`ChooserFold`] of that
//! stride column and the order's bank column, so the hybrid's FCM part is
//! never replayed twice. Every other config (a hybrid of an order the
//! bank lacks, one with a single-order FCM part, any finite predictor) is
//! a group of one; the merge hands back one report per configuration in
//! bank order.
//!
//! Groups are routed by declaration: a group whose predictor declares
//! [`Predictor::keeps_per_id_state`] (and every FCM bank) hits on
//! a record only by that instruction's own values. On a resident trace
//! such groups replay PC-major: the trace's
//! [`PcIndex`](crate::shared::PcIndex) is split into
//! [`UNITS`] contiguous id ranges balanced by record count, and one job
//! per unit gathers each instruction's records once and feeds them to
//! every such group, each with fresh state under local id 0. The
//! correlated replay of Figures 8 and 9 ([`Correlated`]) is one more such
//! model: it rebuilds every group of its bank per instruction and folds
//! their hit columns into each record's correct-set mask. Any other
//! group (finite tables alias across PCs, delayed updates queue across
//! them) replays as one job over every record in trace order, and so
//! does every observer. A streamed container stays record-major: it is
//! split into one PC shard per consumer thread for the per-PC groups, so
//! each consumer gathers (and interns) its records once per chunk for
//! every model it owns, and every other group is one unsharded job.

use crate::batch::BatchScratch;
use crate::pool::decode_ahead;
use crate::replay::UNITS;
use crate::shared::ChunkWindow;
use crate::{ReplayEngine, SharedTrace};
use dvp_core::{
    AccuracyTracker, BankForm, ChooserFold, CorrectMask, Correlation, FcmBank, Predictor,
    PredictorConfig, StridePredictor,
};
use dvp_trace::io::{v2, TraceIoError};
use dvp_trace::{InstrCategory, Observer, Pc, PcId, PcInterner, PhasePlan, TraceRecord, Value};
use std::io::Read;
use std::ops::Range;

/// What a replay observes and tallies.
#[derive(Clone, Copy)]
pub(crate) enum Plan<'a> {
    /// Every record, tallied once.
    Full,
    /// One cold run per phase: observe the warmup prefix, tally the
    /// window into that phase's tally.
    Cold(&'a PhasePlan),
    /// Functional warming: observe every record, tally phase *i*'s window
    /// into tally *i*.
    Warm(&'a PhasePlan),
}

impl Plan<'_> {
    /// Runs per model over any set of records: one per phase for a cold
    /// plan (one even without phases, so every configuration reports),
    /// else one.
    fn phases(self) -> usize {
        match self {
            Plan::Cold(plan) => plan.phases.len().max(1),
            _ => 1,
        }
    }

    /// The record positions run `phase` observes.
    fn observed(self, phase: usize) -> Range<u64> {
        match self {
            Plan::Cold(plan) => plan
                .phases
                .get(phase)
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

    /// The model of `group` for run `phase`: its replayer, its tallied
    /// windows, and the tally index of the first.
    fn tallied(self, bank: &[PredictorConfig], group: &Group, phase: usize) -> Tallied {
        let (windows, first, tallies) = match self {
            Plan::Full => (std::iter::once(0..u64::MAX).collect(), 0, 1),
            Plan::Cold(plan) => {
                let window = plan.phases.get(phase).map(|p| p.start..p.end);
                (window.into_iter().collect(), phase, plan.phases.len())
            }
            Plan::Warm(plan) => {
                (plan.phases.iter().map(|p| p.start..p.end).collect(), 0, plan.phases.len())
            }
        };
        let tallies = group
            .members
            .iter()
            .map(|&c| (bank[c].name().to_owned(), vec![AccuracyTracker::new(); tallies]))
            .collect();
        Tallied {
            recipe: group.recipe.clone(),
            replayer: None,
            columns: group.columns.clone(),
            windows,
            first,
            next: 0,
            tallies,
        }
    }
}

/// One replay group of a bank: the configs it tallies, as bank indices,
/// how to build their replayer, and each member's hit column in the
/// replayer's output.
struct Group {
    members: Vec<usize>,
    recipe: Recipe,
    columns: Vec<usize>,
    /// Whether the group keeps strictly per-instruction state.
    per_pc: bool,
}

/// The replay groups of `bank`, read off one built instance of each
/// config ([`Predictor::bank_form`], [`Predictor::keeps_per_id_state`]),
/// never its name. Every lazy-exclusion FCM, and every stride/FCM hybrid
/// whose order one of them has, forms one bank group at the place of its
/// first member when there are two or more of them; every other config is
/// a group of one, per-PC when its predictor declares it.
fn groups(bank: &[PredictorConfig]) -> Vec<Group> {
    let declared: Vec<(Option<BankForm>, bool)> = bank
        .iter()
        .map(|config| {
            let predictor = config.build();
            (predictor.bank_form(), predictor.keeps_per_id_state())
        })
        .collect();
    let fcm = |c: usize| match declared[c].0 {
        Some(BankForm::Fcm(order)) => Some(order),
        _ => None,
    };
    let hybrid = |c: usize| match declared[c].0 {
        Some(BankForm::StrideFcm(order)) => Some(order),
        _ => None,
    };
    let mut orders: Vec<usize> = (0..bank.len()).filter_map(fcm).collect();
    orders.sort_unstable();
    orders.dedup();
    let joins = |c: usize| fcm(c).is_some() || hybrid(c).is_some_and(|k| orders.contains(&k));
    let members: Vec<usize> = (0..bank.len()).filter(|&c| joins(c)).collect();
    let mut derived: Vec<usize> = members.iter().filter_map(|&c| hybrid(c)).collect();
    derived.sort_unstable();
    derived.dedup();
    let mut groups = Vec::new();
    for c in 0..bank.len() {
        if members.len() < 2 || !members.contains(&c) {
            let (recipe, per_pc) = (Recipe::One(bank[c].clone()), declared[c].1);
            groups.push(Group { members: vec![c], recipe, columns: vec![0], per_pc });
        } else if c == members[0] {
            // Columns: one per FCM order, then one per derived hybrid.
            let column = |&c: &usize| match (fcm(c), hybrid(c)) {
                (Some(k), _) => orders.binary_search(&k).expect("a member's order"),
                (_, Some(k)) => orders.len() + derived.binary_search(&k).expect("a hybrid"),
                _ => unreachable!("a bank member is an FCM or a hybrid"),
            };
            let columns = members.iter().map(column).collect();
            let recipe = Recipe::Bank { orders: orders.clone(), hybrids: derived.clone() };
            groups.push(Group { members: members.clone(), recipe, columns, per_pc: true });
        }
    }
    groups
}

/// One configuration's name and tallies.
pub(crate) type ConfigTally = (String, Vec<AccuracyTracker>);

/// Reorders per-group reports into one report per configuration, in
/// bank order.
fn in_bank_order(groups: &[Group], reports: Vec<Vec<ConfigTally>>) -> Vec<ConfigTally> {
    let mut out: Vec<Option<ConfigTally>> =
        vec![None; groups.iter().map(|g| g.members.len()).sum()];
    for (group, report) in groups.iter().zip(reports) {
        for (&config, tally) in group.members.iter().zip(report) {
            out[config] = Some(tally);
        }
    }
    out.into_iter().map(|tally| tally.expect("every config is in one group")).collect()
}

/// What one replay job feeds, what it reports, and how two jobs' reports
/// merge.
pub(crate) trait Model: Send + Sized {
    /// What a finished job reports.
    type Tally: Send;
    /// Starts the next instruction of a PC-major job, whose records the
    /// next feed holds, all under local id 0.
    fn start_pc(&mut self) {}
    /// Replays one gathered batch.
    fn feed(&mut self, batch: &mut BatchScratch);
    /// Drops the job's replay state, keeping its report.
    fn finish(self) -> Self::Tally;
    /// Folds another job's report for the same model into `into`.
    fn merge(into: &mut Self::Tally, from: Self::Tally);
}

/// How to build a group's replayer.
#[derive(Clone)]
enum Recipe {
    One(PredictorConfig),
    /// An FCM bank of these orders, ascending, and one stride/FCM hybrid
    /// of each of the `hybrids` orders (ascending, each one of `orders`)
    /// derived from its columns.
    Bank {
        orders: Vec<usize>,
        hybrids: Vec<usize>,
    },
}

impl Recipe {
    fn build(&self) -> Replayer {
        match self {
            Recipe::One(config) => Replayer::One(config.build()),
            Recipe::Bank { orders, hybrids } => {
                Replayer::Bank(Box::new(BankJob::new(orders, hybrids)))
            }
        }
    }

    /// A replayer with fresh state sized for one instruction, local id 0.
    fn build_one_pc(&self) -> Replayer {
        let mut replayer = self.build();
        match &mut replayer {
            Replayer::One(predictor) => predictor.reserve_ids(1),
            Replayer::Bank(job) => job.reserve_ids(1),
        }
        replayer
    }
}

/// What a group replays: one predictor, or an FCM bank with one hit
/// column per member.
enum Replayer {
    One(Box<dyn Predictor>),
    Bank(Box<BankJob>),
}

impl Replayer {
    /// Replays the batch's selection: see [`BatchScratch::observe`].
    fn observe<'b>(
        &mut self,
        batch: &'b mut BatchScratch,
    ) -> (u64, &'b [u32], &'b [InstrCategory], &'b [bool]) {
        match self {
            Replayer::One(predictor) => batch.observe(predictor.as_mut()),
            Replayer::Bank(job) => batch.observe_bank(job),
        }
    }
}

/// An [`FcmBank`] and the stride/FCM hybrids derived from its columns.
///
/// A derived hybrid runs its own two-delta stride over the same records
/// and folds that hit column with its order's bank column through a
/// [`ChooserFold`], exactly the hits of a lone
/// [`HybridPredictor::stride_fcm`](dvp_core::HybridPredictor::stride_fcm)
/// (see `dvp_core`'s `hybrid` module docs).
pub(crate) struct BankJob {
    fcm: FcmBank,
    /// Per derived hybrid: the bank member of its order, its stride part
    /// and its chooser.
    hybrids: Vec<(usize, StridePredictor, ChooserFold)>,
    /// The stride part's hit column of the batch being folded.
    stride_hits: Vec<bool>,
}

impl BankJob {
    fn new(orders: &[usize], hybrids: &[usize]) -> Self {
        let member = |k| orders.binary_search(k).expect("a derived hybrid's order is in the bank");
        BankJob {
            fcm: FcmBank::new(orders.iter().copied()),
            hybrids: hybrids
                .iter()
                .map(|k| (member(k), StridePredictor::two_delta(), ChooserFold::default()))
                .collect(),
            stride_hits: Vec::new(),
        }
    }

    fn reserve_ids(&mut self, n: usize) {
        self.fcm.reserve_ids(n);
        for (_, stride, _) in &mut self.hybrids {
            stride.reserve_ids(n);
        }
    }

    /// Hit columns per batch: one per FCM order, then one per hybrid.
    pub(crate) fn columns(&self) -> usize {
        self.fcm.orders().len() + self.hybrids.len()
    }

    /// Replays a run of records in order, writing column `c`'s hit for
    /// record `i` into `correct[c * ids.len() + i]`.
    pub(crate) fn observe_batch(
        &mut self,
        ids: &[PcId],
        pcs: &[Pc],
        values: &[Value],
        correct: &mut [bool],
    ) {
        let n = ids.len();
        let (fcm, derived) = correct.split_at_mut(self.fcm.orders().len() * n);
        self.fcm.observe_batch(ids, values, fcm);
        for (j, (member, stride, chooser)) in self.hybrids.iter_mut().enumerate() {
            self.stride_hits.clear();
            self.stride_hits.resize(n, false);
            stride.observe_batch(ids, pcs, values, &mut self.stride_hits);
            let fcm = &fcm[*member * n..][..n];
            chooser.fold(ids, &self.stride_hits, fcm, &mut derived[j * n..][..n]);
        }
    }
}

/// One group of predictors, tallying the outcomes that fall inside its
/// windows.
pub(crate) struct Tallied {
    recipe: Recipe,
    /// Built by the first feed, and afresh for each instruction.
    replayer: Option<Replayer>,
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

    /// Fresh state for one id, and the window cursor back at the start:
    /// positions ascend within an instruction, not across instructions.
    fn start_pc(&mut self) {
        self.replayer = Some(self.recipe.build_one_pc());
        self.next = 0;
    }

    fn feed(&mut self, batch: &mut BatchScratch) {
        let recipe = &self.recipe;
        let (base, offsets, categories, correct) =
            self.replayer.get_or_insert_with(|| recipe.build()).observe(batch);
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

/// Every config of a bank over the same records, correlated: a PC-major
/// model that, per instruction, rebuilds every group's replayer with fresh
/// state, ORs each member's hit column into the records' correct-set
/// masks at that config's bank position, and appends the instruction to
/// its [`Correlation`].
pub(crate) struct Correlated<'a> {
    groups: &'a [Group],
    /// One per group, built afresh for each instruction.
    replayers: Vec<Replayer>,
    /// The current instruction's correct-set mask per record.
    masks: Vec<CorrectMask>,
    report: Correlation,
}

impl Model for Correlated<'_> {
    type Tally = Correlation;

    fn start_pc(&mut self) {
        self.replayers = self.groups.iter().map(|g| g.recipe.build_one_pc()).collect();
    }

    /// Folds one instruction's records: a PC-major job feeds each
    /// instruction as one batch.
    fn feed(&mut self, batch: &mut BatchScratch) {
        let n = batch.len();
        self.masks.clear();
        self.masks.resize(n, 0);
        for (group, replayer) in self.groups.iter().zip(&mut self.replayers) {
            let (.., correct) = replayer.observe(batch);
            for (&config, &column) in group.members.iter().zip(&group.columns) {
                for (mask, &hit) in self.masks.iter_mut().zip(&correct[column * n..][..n]) {
                    *mask |= CorrectMask::from(hit) << config;
                }
            }
        }
        if let Some((pc, categories)) = batch.instruction() {
            self.report.push_pc(pc, categories, &self.masks);
        }
    }

    fn finish(self) -> Self::Tally {
        self.report
    }

    fn merge(into: &mut Self::Tally, from: Self::Tally) {
        into.merge(from);
    }
}

/// An observer (a per-instruction profile, a trace summary) folds the
/// batch's columns under their trace ids and is its own report.
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

/// Folds `(model, report)` pairs, in job order, into one report per model.
///
/// # Panics
///
/// Panics if some model of `0..models` has no report.
fn merge<M: Model>(
    models: usize,
    reports: impl IntoIterator<Item = (usize, M::Tally)>,
) -> Vec<M::Tally> {
    let mut merged: Vec<Option<M::Tally>> = (0..models).map(|_| None).collect();
    for (model, tally) in reports {
        match &mut merged[model] {
            Some(into) => M::merge(into, tally),
            slot => *slot = Some(tally),
        }
    }
    merged.into_iter().map(|tally| tally.expect("every model runs at least one job")).collect()
}

/// One resident job.
#[derive(Clone)]
enum Work {
    /// Every per-PC model over one unit's instructions (an id range),
    /// each instruction's records observed in run `phase` of the plan.
    Instructions(Range<usize>, usize),
    /// One model over every record the plan's run `phase` observes, in
    /// trace order.
    Records(usize, usize),
}

/// One streaming job: a model plus the part of the trace it observes.
struct Job<M> {
    model: M,
    observed: Range<u64>,
    /// The PC shard (of one per consumer) this job owns, if any.
    shard: Option<usize>,
}

/// The span of a `len`-record chunk at position `base` inside `observed`.
fn span(observed: &Range<u64>, base: u64, len: usize) -> Range<usize> {
    let clamp = |pos: u64| (pos.clamp(base, base + len as u64) - base) as usize;
    clamp(observed.start)..clamp(observed.end)
}

/// The streaming jobs as `(model, phase, shard)`: one per shard for each
/// model `sharded` marks (when there are two or more shards), then one
/// per run of the plan for every other model. Sharded jobs come first,
/// `shards` per model, so job `j` with shard `s` has `j % shards == s`.
fn stream_jobs(
    sharded: &[bool],
    phases: usize,
    shards: usize,
) -> Vec<(usize, usize, Option<usize>)> {
    let (split, whole): (Vec<usize>, Vec<usize>) =
        (0..sharded.len()).partition(|&m| sharded[m] && shards > 1);
    let split = split.into_iter().flat_map(|m| (0..shards).map(move |s| (m, 0, Some(s))));
    let whole = whole.into_iter().flat_map(|m| (0..phases).map(move |p| (m, p, None)));
    split.chain(whole).collect()
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
        if (0..plan.phases())
            .map(|phase| plan.observed(phase))
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
    /// Replays a resident trace under `plan`: `per_pc[m]` routes model `m`
    /// PC-major (see the module docs) or in trace order, and
    /// `make(model, phase)` builds each job's model for the plan's run
    /// `phase`. Returns one merged report per model. The trace's index is
    /// built only when some model goes PC-major.
    ///
    /// # Panics
    ///
    /// Panics if [`Plan::check`] rejects the plan for the trace.
    pub(crate) fn drive<M, F>(
        &self,
        trace: &SharedTrace,
        plan: Plan<'_>,
        per_pc: &[bool],
        make: F,
    ) -> Vec<M::Tally>
    where
        M: Model,
        F: Fn(usize, usize) -> M + Sync,
    {
        plan.check(trace.len() as u64).unwrap_or_else(|e| panic!("{e}"));
        let models = per_pc.len();
        let pc_major: Vec<usize> = (0..models).filter(|&m| per_pc[m]).collect();
        let mut work = Vec::new();
        if !pc_major.is_empty() {
            for unit in trace.pc_index().units(UNITS) {
                work.extend(
                    (0..plan.phases()).map(|phase| Work::Instructions(unit.clone(), phase)),
                );
            }
        }
        for model in (0..models).filter(|&m| !per_pc[m]) {
            work.extend((0..plan.phases()).map(|phase| Work::Records(model, phase)));
        }
        let reports = self.map(work, |work| {
            let mut scratch = BatchScratch::default();
            match work {
                Work::Instructions(ids, phase) => {
                    let index = trace.pc_index();
                    let observed = plan.observed(phase);
                    let mut jobs: Vec<(usize, M)> =
                        pc_major.iter().map(|&m| (m, make(m, phase))).collect();
                    for id in ids {
                        let all = index.positions(id);
                        let from = all.partition_point(|&at| u64::from(at) < observed.start);
                        let to =
                            from + all[from..].partition_point(|&at| u64::from(at) < observed.end);
                        if from == to {
                            continue;
                        }
                        scratch.gather_positions(trace.chunks(), index, &all[from..to]);
                        for (_, model) in &mut jobs {
                            model.start_pc();
                            model.feed(&mut scratch);
                        }
                    }
                    jobs.into_iter().map(|(m, model)| (m, model.finish())).collect()
                }
                Work::Records(m, phase) => {
                    let observed = plan.observed(phase);
                    let mut model = make(m, phase);
                    let mut base = 0u64;
                    for (records, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
                        let span = span(&observed, base, records.len());
                        if !span.is_empty() {
                            let at = base + span.start as u64;
                            scratch.gather(at, &records[span.clone()], &ids[span]);
                            model.feed(&mut scratch);
                        }
                        base += records.len() as u64;
                    }
                    vec![(m, model.finish())]
                }
            }
        });
        merge::<M>(models, reports.into_iter().flatten())
    }

    /// Replays `bank` over a resident trace under `plan`, one model per
    /// [`groups`] member. Returns one merged report per configuration, in
    /// bank order.
    pub(crate) fn drive_bank(
        &self,
        trace: &SharedTrace,
        plan: Plan<'_>,
        bank: &[PredictorConfig],
    ) -> Vec<ConfigTally> {
        let groups = groups(bank);
        let per_pc: Vec<bool> = groups.iter().map(|g| g.per_pc).collect();
        let make = |g: usize, phase| plan.tallied(bank, &groups[g], phase);
        in_bank_order(&groups, self.drive(trace, plan, &per_pc, make))
    }

    /// Correlates the correct sets of `bank` over a resident trace: for
    /// every record, which configs predicted it (bit *i* for config *i*),
    /// counted per category, and one [`PcTally`](dvp_core::PcTally) per
    /// static instruction in first-appearance order. One `Correlated`
    /// model replays PC-major over the trace's units, every config under
    /// the same groups as [`replay`](ReplayEngine::replay), so each
    /// config's hits equal its lone replay's; the report is identical at
    /// any worker count.
    ///
    /// # Panics
    ///
    /// Panics if some config's predictor does not keep per-instruction
    /// state ([`Predictor::keeps_per_id_state`]): a finite table or a
    /// delayed predictor has no answer one instruction at a time. Also
    /// panics if the bank holds more than 32 configs.
    #[must_use]
    pub fn correlate(&self, trace: &SharedTrace, bank: &[PredictorConfig]) -> Correlation {
        let groups = groups(bank);
        if let Some(group) = groups.iter().find(|g| !g.per_pc) {
            let name = bank[group.members[0]].name();
            panic!("correlate replays one instruction at a time, and {name} keeps no per-id state");
        }
        let empty = Correlation::new(bank.iter().map(|c| c.name().to_owned()).collect());
        let make = |_, _| Correlated {
            groups: &groups,
            replayers: Vec::new(),
            masks: Vec::new(),
            report: empty.clone(),
        };
        self.drive(trace, Plan::Full, &[true], make).pop().expect("one merged correlation")
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
        let per_pc: Vec<bool> = groups.iter().map(|g| g.per_pc).collect();
        let make = |g: usize, phase| plan.tallied(bank, &groups[g], phase);
        let (header, reports) = self.drive_stream(reader, plan, &per_pc, make)?;
        Ok((header, in_bank_order(&groups, reports)))
    }

    /// Replays a container streaming under `plan`: the calling thread
    /// produces chunks into the bounded window while each consumer folds
    /// every chunk into the jobs it owns. A per-PC model (`per_pc[m]`)
    /// under a full or warm plan runs one job per PC shard, with one shard
    /// per consumer; any other model runs one unsharded job per run of the
    /// plan. The sharded jobs come first, then the unsharded ones, each
    /// model-major, and job `j` belongs to consumer `j % consumers`: consumer
    /// `s` owns shard `s` of every per-PC model. A consumer gathers a chunk
    /// once for each run of owned jobs with the same span and shard
    /// (once for its shard and once unfiltered in a mixed bank), interning
    /// only the records it selects into its own interner, and feeds every
    /// job of the run from that batch.
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
        per_pc: &[bool],
        make: F,
    ) -> Result<(v2::Header, Vec<M::Tally>), TraceIoError>
    where
        R: Read,
        M: Model,
        F: Fn(usize, usize) -> M + Sync,
    {
        let header = v2::read_header(&mut reader)?;
        plan.check(header.record_count).map_err(|message| TraceIoError::Format { message })?;
        let models = per_pc.len();
        let sharded: Vec<bool> =
            per_pc.iter().map(|&p| p && !matches!(plan, Plan::Cold(_))).collect();
        let jobs_at = |shards| stream_jobs(&sharded, plan.phases(), shards);
        let consumers = self.workers().min(jobs_at(self.workers()).len());
        let jobs = jobs_at(consumers);
        let folded = decode_ahead(
            self.chunk_window(),
            consumers,
            |window| produce(&mut reader, &header, plan, window),
            |window, consumer| {
                let mut owned: Vec<(usize, Job<M>)> = jobs
                    .iter()
                    .skip(consumer)
                    .step_by(consumers)
                    .map(|&(m, phase, shard)| {
                        (m, Job { model: make(m, phase), observed: plan.observed(phase), shard })
                    })
                    .collect();
                let mut interner = PcInterner::new();
                let mut scratch = BatchScratch::default();
                while let Some(chunk) = window.next(consumer) {
                    let (base, records) = &*chunk;
                    let mut gathered = None;
                    for (_, job) in &mut owned {
                        let selection = (span(&job.observed, *base, records.len()), job.shard);
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
                owned.into_iter().map(|(m, job)| (m, job.model.finish())).collect::<Vec<_>>()
            },
        )?;
        // Consumer `c` reported jobs `c, c + consumers, …` in order.
        let mut folded: Vec<_> = folded.into_iter().map(Vec::into_iter).collect();
        let reports =
            (0..jobs.len()).map(|j| folded[j % consumers].next().expect("one report per job"));
        Ok((header, merge::<M>(models, reports)))
    }
}

#[cfg(test)]
mod tests {
    use crate::{phase_plan, ConfigReplay, PhaseOptions, ReplayEngine, SampledReplay, SharedTrace};
    use dvp_core::{
        AccuracyTracker, Blending, Correlation, DelayedPredictor, FcmPredictor,
        FiniteLastValuePredictor, HybridPredictor, LastValuePredictor, Predictor, PredictorConfig,
        StridePredictor, TableSpec,
    };
    use dvp_trace::io::v2;
    use dvp_trace::{InstrCategory, Pc, PcInterner, PhasePlan, TraceRecord};
    use proptest::prelude::*;
    use std::ops::Range;

    /// Two regimes over 7 PCs: a four-value alphabet in a scrambled
    /// order, where FCM orders 1, 2 and 3 each hit a different number of
    /// records, then strides; an eighth PC executes once.
    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let category =
                    if i % 2 == 0 { InstrCategory::Loads } else { InstrCategory::AddSub };
                let noisy = ((i / 7) % 61).wrapping_mul(2_654_435_761) >> 11;
                let value = if i < n / 2 { noisy % 4 } else { (i / 7) * 3 };
                // One instruction executes once, mid-trace.
                let pc = if i == n / 3 { Pc(0x50_0000) } else { Pc(0x40_0000 + 4 * (i % 7)) };
                TraceRecord::new(pc, category, value)
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
    /// one group around configs of their own: `fcm3` and `fcm2` from
    /// [`PredictorConfig::fcm_orders`], an order-1 FCM from a custom
    /// factory, and `hybrid2`, a stride/FCM hybrid derived from the order-2
    /// column. Four configs must not join it: a custom factory named
    /// `fcm2` (a single-order model), `hybrid4` (no order-4 FCM in the
    /// bank) and a hybrid whose FCM part is single-order.
    fn banks() -> [Vec<PredictorConfig>; 2] {
        let fcm = |k| PredictorConfig::fcm_orders([k]).remove(0);
        let single = || FcmPredictor::with_config(2, Blending::SingleOrder);
        let impostor = PredictorConfig::new("fcm2", move || Box::new(single()));
        let custom = PredictorConfig::new("lazy1", || Box::new(FcmPredictor::new(1)));
        let hybrid = |k: usize| {
            PredictorConfig::new(format!("hybrid{k}"), move || {
                Box::new(HybridPredictor::stride_fcm(k))
            })
        };
        let single_hybrid = PredictorConfig::new("hybrid-single2", move || {
            Box::new(HybridPredictor::new(StridePredictor::two_delta(), single()))
        });
        let paper = PredictorConfig::paper_bank();
        let interleaved = vec![
            fcm(3),
            paper[0].clone(),
            custom,
            paper[1].clone(),
            hybrid(2),
            fcm(2),
            impostor,
            hybrid(4),
            single_hybrid,
        ];
        [paper, interleaved]
    }

    /// Each group's members and their hit columns.
    fn layout(bank: &[PredictorConfig]) -> Vec<(Vec<usize>, Vec<usize>)> {
        super::groups(bank).into_iter().map(|g| (g.members, g.columns)).collect()
    }

    #[test]
    fn fcm_orders_group_by_order_not_by_name() {
        let [paper, interleaved] = banks();
        let one = |c| (vec![c], vec![0]);
        assert_eq!(layout(&paper), [one(0), one(1), (vec![2, 3, 4], vec![0, 1, 2])]);
        // Orders 1, 2, 3 are columns 0, 1, 2; the derived hybrid is column 3.
        let bank = (vec![0, 2, 4, 5], vec![2, 0, 3, 1]);
        assert_eq!(layout(&interleaved), [bank, one(1), one(3), one(6), one(7), one(8)]);
        let lone = PredictorConfig::fcm_orders([2]);
        assert_eq!(layout(&lone), [one(0)]);
        // A lone FCM still carries a hybrid of its order; without one, a
        // hybrid replays whole.
        let pair = [interleaved[4].clone(), interleaved[5].clone()];
        assert_eq!(layout(&pair), [(vec![0, 1], vec![1, 0])]);
        assert_eq!(layout(&pair[..1]), [one(0)]);
    }

    /// A finite table (3 index bits, so 8 slots shared by every PC) and
    /// delayed updates (one queue over every PC), each under a name a
    /// per-PC predictor uses, beside the paper bank's `l`.
    fn cross_pc_bank() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::new("l", || {
                Box::new(FiniteLastValuePredictor::new(TableSpec::new(3)))
            }),
            PredictorConfig::new("fcm1", || {
                Box::new(DelayedPredictor::new(LastValuePredictor::new(), 16))
            }),
            PredictorConfig::paper_bank().remove(0),
        ]
    }

    #[test]
    fn a_bank_may_name_one_order_twice() {
        let trace = SharedTrace::from_records(records(3_000));
        let bank = PredictorConfig::fcm_orders([2, 1, 2]);
        let reference = one_pass(&trace, Mode::Full, &PhasePlan::default(), &bank);
        assert_eq!(full(&ReplayEngine::sequential().replay(&trace, &bank)), reference);
    }

    #[test]
    fn groups_route_by_their_predictors_declaration_not_by_name() {
        let [paper, interleaved] = banks();
        let routes = |bank: &[PredictorConfig]| -> Vec<bool> {
            super::groups(bank).iter().map(|g| g.per_pc).collect()
        };
        assert_eq!(routes(&paper), [true; 3]);
        assert_eq!(routes(&interleaved), [true; 6]);
        assert_eq!(routes(&cross_pc_bank()), [false, false, true]);
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

    /// Engines at several worker counts, with a two-chunk streaming window.
    fn engines() -> Vec<ReplayEngine> {
        [1, 2, 3, 5]
            .into_iter()
            .map(|workers| ReplayEngine::new().with_workers(workers).with_chunk_window(2))
            .chain([ReplayEngine::sequential()])
            .collect()
    }

    /// Stored and compressed containers of `records` in 2048-record chunks.
    fn containers(records: &[TraceRecord]) -> (Vec<u8>, Vec<u8>) {
        let meta = v2::TraceMeta::default();
        let mut stored = Vec::new();
        v2::write_with_sections(&mut stored, &meta, records.chunks(2048), &[]).expect("writes");
        let mut compressed = Vec::new();
        v2::write_compressed(&mut compressed, &meta, records.chunks(2048), &[]).expect("writes");
        (stored, compressed)
    }

    /// The same records resident in three chunk layouts: one chunk, the
    /// builder's fixed 1000-record chunks, and ragged chunks of 1 to 4099
    /// records, so a PC-major gather crosses every kind of boundary.
    fn layouts(records: &[TraceRecord]) -> [SharedTrace; 3] {
        let mut builder = crate::SharedTraceBuilder::with_chunk_len(1000);
        records.iter().for_each(|&rec| builder.push(rec));
        let mut ragged = Vec::new();
        let mut rest = records;
        for len in [1, 4099, 2, 333, 1].into_iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            ragged.push(chunk.to_vec());
            rest = tail;
        }
        [
            SharedTrace::from_records(records.to_vec()),
            builder.finish(),
            SharedTrace::from_chunks(ragged),
        ]
    }

    #[test]
    fn every_source_plan_and_worker_count_matches_one_pass() {
        let records = records(30_000);
        let (stored, compressed) = containers(&records);
        let containers = (stored.as_slice(), compressed.as_slice());
        let residents = layouts(&records);
        assert_eq!(residents[2].chunks().len(), 32);
        let trace = &residents[0];
        let options = PhaseOptions { window_records: 512, clusters: 4, ..PhaseOptions::default() };
        let plan = phase_plan(trace, &options);
        // Streaming shards by consumer (one per worker), resident replay
        // into the engine's fixed units: only the former varies here.
        let engines = engines();
        for bank in banks() {
            for mode in [Mode::Full, Mode::Cold, Mode::Warm] {
                let reference = one_pass(trace, mode, &plan, &bank);
                // Swapped bank members would show.
                let fcm: Vec<_> =
                    reference.iter().filter(|(name, _)| name.starts_with("fcm")).collect();
                for (i, a) in fcm.iter().enumerate() {
                    assert!(fcm[i + 1..].iter().all(|b| a.1 != b.1), "{mode:?}: {} ties", a.0);
                }
                for (layout, resident) in residents.iter().enumerate() {
                    let engine = &engines[layout % engines.len()];
                    assert_eq!(
                        run(engine, Source::Resident, mode, resident, containers, &plan, &bank),
                        reference,
                        "{mode:?} layout {layout}"
                    );
                }
                for source in [Source::Stored, Source::Compressed] {
                    for engine in &engines {
                        assert_eq!(
                            run(engine, source, mode, trace, containers, &plan, &bank),
                            reference,
                            "{source:?} {mode:?} {engine:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_trace_tallies_nothing_from_every_source_and_plan() {
        let trace = SharedTrace::new();
        let (stored, compressed) = containers(&[]);
        let plan = phase_plan(&trace, &PhaseOptions::default());
        for bank in banks().into_iter().chain([cross_pc_bank()]) {
            for mode in [Mode::Full, Mode::Cold, Mode::Warm] {
                let reference = one_pass(&trace, mode, &plan, &bank);
                for source in [Source::Resident, Source::Stored, Source::Compressed] {
                    for engine in engines() {
                        let containers = (stored.as_slice(), compressed.as_slice());
                        let got = run(&engine, source, mode, &trace, containers, &plan, &bank);
                        assert_eq!(got, reference, "{source:?} {mode:?} {engine:?}");
                    }
                }
            }
        }
    }

    /// Finite tables and delayed updates carry state across PCs, so only
    /// one pass over every record in trace order gives their answer: a
    /// partition by PC would shrink the finite table's aliasing and
    /// reorder the delay queue.
    #[test]
    fn streaming_consumer_s_owns_shard_s_of_every_per_pc_model() {
        let jobs = super::stream_jobs(&[true, false, true, false], 1, 3);
        assert_eq!(jobs.len(), 8);
        for (j, &(_, _, shard)) in jobs.iter().enumerate() {
            assert!(shard.is_none_or(|s| j % 3 == s), "job {j}: {jobs:?}");
        }
        assert_eq!(jobs[6..], [(1, 0, None), (3, 0, None)], "the rest spread over consumers");
        let one = [(0, 0, None), (0, 1, None), (1, 0, None), (1, 1, None)];
        assert_eq!(super::stream_jobs(&[true, false], 2, 1), one, "one shard splits nothing");
    }

    #[test]
    fn configs_without_per_pc_state_replay_as_one_record_order_pass() {
        // 37 PCs, each repeating a value of its own with rare changes.
        let records: Vec<TraceRecord> = (0..20_000u64)
            .map(|i| {
                let pc = i % 37;
                TraceRecord::new(Pc(0x40_0000 + 8 * pc), InstrCategory::Logic, pc + i / 3000)
            })
            .collect();
        let (stored, _) = containers(&records);
        let trace = SharedTrace::from_records(records);
        let bank = cross_pc_bank();
        let plan = PhasePlan::default();
        let reference = one_pass(&trace, Mode::Full, &plan, &bank);
        let (finite, delayed) = (&reference[0].1[0][InstrCategory::ALL.len()], &reference[1].1[0]);
        assert!(finite.0 < 100, "8 slots under 37 round-robin PCs alias: {finite:?}");
        assert!(delayed[InstrCategory::ALL.len()].0 > 10_000, "{delayed:?}");
        for workers in [1, 3] {
            let engine = ReplayEngine::new().with_workers(workers);
            assert_eq!(full(&engine.replay(&trace, &bank)), reference, "resident, {workers}");
            let (_, streamed) = engine.replay_streaming(stored.as_slice(), &bank).expect("streams");
            assert_eq!(full(&streamed), reference, "streamed, {workers}");
        }
    }

    /// A correlation's subset counts, per category and then for all, by
    /// mask; and its per-PC `(pc, total, correct, category)` tallies.
    type Joint = (Vec<Vec<u64>>, Vec<(Pc, u64, Vec<u64>, Option<InstrCategory>)>);

    fn joint(report: &Correlation) -> Joint {
        let masks = 1u32 << report.names().len();
        let counts = InstrCategory::ALL
            .into_iter()
            .map(Some)
            .chain([None])
            .map(|category| (0..masks).map(|m| report.subset_count(category, m)).collect())
            .collect();
        let per_pc = report
            .per_pc_tallies()
            .iter()
            .map(|(pc, t)| (*pc, t.total, t.correct.clone(), t.category))
            .collect();
        (counts, per_pc)
    }

    /// The correlation written out by hand: every config built once and
    /// stepped in lockstep over the whole trace in trace order under its
    /// trace ids, each record's correct-set mask counted per category,
    /// and each PC tallied in first-appearance order.
    fn lockstep(trace: &SharedTrace, bank: &[PredictorConfig]) -> Joint {
        let mut predictors: Vec<_> = bank.iter().map(PredictorConfig::build).collect();
        let all = InstrCategory::ALL.len();
        let mut counts = vec![vec![0u64; 1 << bank.len()]; all + 1];
        let mut per_pc: Vec<(Pc, u64, Vec<u64>, Option<InstrCategory>)> = Vec::new();
        for (rec, id) in trace.iter_with_ids() {
            let hits: Vec<bool> = predictors
                .iter_mut()
                .map(|p| p.step(id, rec.pc, rec.value) == Some(rec.value))
                .collect();
            let mask = hits.iter().rev().fold(0, |mask, &hit| mask << 1 | usize::from(hit));
            counts[rec.category.index()][mask] += 1;
            counts[all][mask] += 1;
            if id.index() == per_pc.len() {
                per_pc.push((rec.pc, 0, vec![0; bank.len()], Some(rec.category)));
            }
            let (_, total, correct, _) = &mut per_pc[id.index()];
            *total += 1;
            for (c, &hit) in correct.iter_mut().zip(&hits) {
                *c += u64::from(hit);
            }
        }
        (counts, per_pc)
    }

    /// Last value, two-delta stride and order-3 FCM: Figure 8's trio.
    fn trio() -> Vec<PredictorConfig> {
        let paper = PredictorConfig::paper_bank();
        vec![paper[0].clone(), paper[1].clone(), paper[4].clone()]
    }

    #[test]
    fn correlate_matches_a_lockstep_pass_on_every_layout_and_worker_count() {
        let records = records(30_000);
        let residents = layouts(&records);
        let [paper, interleaved] = banks();
        for bank in [trio(), paper, interleaved] {
            let reference = lockstep(&residents[0], &bank);
            assert!(reference.1.iter().any(|&(_, total, ..)| total == 1), "a one-record PC");
            for (layout, resident) in residents.iter().enumerate() {
                for engine in engines() {
                    let got = joint(&engine.correlate(resident, &bank));
                    assert_eq!(got, reference, "layout {layout} {engine:?}");
                }
            }
            // Each config's hits are those of its lone replay.
            let engine = ReplayEngine::sequential();
            let report = engine.correlate(&residents[0], &bank);
            assert_eq!(report.total(), records.len() as u64);
            for (i, replay) in engine.replay(&residents[0], &bank).iter().enumerate() {
                assert_eq!(
                    report.correct_total(i),
                    replay.tracker.correct(None),
                    "{}",
                    replay.name
                );
            }
            let empty = SharedTrace::new();
            for engine in engines() {
                let report = engine.correlate(&empty, &bank);
                assert_eq!(joint(&report), lockstep(&empty, &bank), "{engine:?}");
                assert_eq!(report.total(), 0);
            }
        }
    }

    #[test]
    fn correlate_shows_each_trio_member_s_signature_sequence() {
        // Three instructions, interleaved: a constant, a stride, and a
        // repeating non-stride period.
        let period = [9u64, 2, 77, 31, 5, 18];
        let records: Vec<TraceRecord> = (0..300u64)
            .flat_map(|i| {
                [
                    TraceRecord::new(Pc(0), InstrCategory::Shift, 42),
                    TraceRecord::new(Pc(4), InstrCategory::AddSub, 10 * i),
                    TraceRecord::new(Pc(8), InstrCategory::Loads, period[i as usize % 6]),
                ]
            })
            .collect();
        let engine = ReplayEngine::new().with_workers(3);
        let report = engine.correlate(&SharedTrace::from_records(records), &trio());
        let count = |category, mask| report.subset_count(Some(category), mask);
        // After warmup, all three catch the constant.
        assert!(count(InstrCategory::Shift, 0b111) >= 295);
        // Only stride extrapolates: FCM never saw the value, last value is stale.
        assert!(count(InstrCategory::AddSub, 0b010) >= 290);
        assert_eq!(count(InstrCategory::AddSub, 0b001), 0);
        // Only FCM learns the period.
        assert!(count(InstrCategory::Loads, 0b100) > 250);
        let tallies: Vec<_> =
            report.per_pc_tallies().iter().map(|(pc, t)| (pc.0, t.total, t.category)).collect();
        let categories = [InstrCategory::Shift, InstrCategory::AddSub, InstrCategory::Loads];
        assert_eq!(
            tallies,
            [0, 4, 8]
                .into_iter()
                .zip(categories)
                .map(|(pc, c)| (pc, 300, Some(c)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "keeps no per-id state")]
    fn correlate_refuses_a_config_without_per_id_state() {
        let trace = SharedTrace::from_records(records(100));
        let _ = ReplayEngine::sequential().correlate(&trace, &cross_pc_bank());
    }

    /// A trace of `n` records over `pcs` PCs drawn from `seed`: each PC
    /// mixes a short value cycle, a stride and noise.
    fn drawn(n: usize, pcs: u64, seed: u64) -> Vec<TraceRecord> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = x % pcs;
                let value = match pc % 3 {
                    0 => (i as u64 / 5) % 3,
                    1 => 7 * i as u64,
                    _ => (x >> 20) % 4,
                };
                TraceRecord::new(Pc(0x1000 + 4 * pc), InstrCategory::ALL[(pc % 4) as usize], value)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // PC-major replay visits instructions in id order; renumbering the
        // same records' PCs in a shuffled order (so the units and the
        // visiting order both change) leaves every per-PC model's tallies
        // as they were.
        #[test]
        fn per_pc_tallies_do_not_depend_on_the_order_pcs_are_visited(
            case in (1usize..600, 1u64..60, any::<u64>())
        ) {
            let (n, pcs, seed) = case;
            let records = drawn(n, pcs, seed);
            let mut bank = PredictorConfig::paper_bank();
            bank.push(PredictorConfig::new("hybrid", || Box::new(HybridPredictor::stride_fcm(2))));
            let engine = ReplayEngine::sequential();
            let in_order = full(&engine.replay(&SharedTrace::from_records(records.clone()), &bank));
            let mut order: Vec<Pc> = records.iter().map(|r| r.pc).collect();
            order.sort_unstable();
            order.dedup();
            let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
            for i in (1..order.len()).rev() {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                order.swap(i, (x >> 33) as usize % (i + 1));
            }
            let mut interner = PcInterner::new();
            order.iter().for_each(|&pc| { interner.intern(pc); });
            let ids = records.iter().map(|r| interner.get(r.pc).expect("interned")).collect();
            let shuffled = SharedTrace::from_parts(vec![records.clone()], vec![ids], interner);
            prop_assert_eq!(full(&engine.replay(&shuffled, &bank)), in_order);
            let by_pc = |report: Correlation| {
                let (counts, mut per_pc) = joint(&report);
                per_pc.sort_unstable_by_key(|&(pc, ..)| pc);
                (counts, per_pc)
            };
            prop_assert_eq!(
                by_pc(engine.correlate(&shuffled, &bank)),
                by_pc(engine.correlate(&SharedTrace::from_records(records), &bank))
            );
        }
    }
}
