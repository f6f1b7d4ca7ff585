(** Trace-driven re-timing: functional execution once, timing replay many.

    {!Machine.simulate} entangles two very different costs: the functional
    co-simulation (interpret both slices, serve memory, golden-check) and
    the timing replay (schedule the recorded channel events against bounded
    FIFOs). Only the replay depends on the configuration — {!Exec} takes no
    [Config.t], and for ORACLE the {!Timing.oracle_filter} is likewise
    config-independent — so a design-space sweep that re-runs {!Exec} per
    point does the expensive half of the work [|grid|] times for nothing.

    This module splits the pipeline at that seam:

    + {!plan} compiles a kernel for one architecture (slice, lower, digest)
      without executing anything — enough to form a cache key;
    + {!prepare} runs the functional execution once over the invocation
      sequence, golden-checks every invocation, oracle-filters when the
      plan is for {!Machine.Oracle}, and persists the compact traces;
    + {!simulate} replays the stored traces under an arbitrary
      configuration and returns a {!Machine.result} that is cycle-identical
      (cycles, stall partitions, deadlock verdicts) to a full
      [Machine.simulate] at the same configuration — the equivalence the
      qcheck suite in [test/test_retime.ml] pins across the kernel suite
      and randomized CFGs.

    The steps themselves are {!Machine}'s ({!Machine.compile},
    {!Machine.execute}, {!Machine.replay}): [Machine.simulate] streams
    them one invocation at a time, this module stores the executed runs
    in between.

    STA is supported through the same interface: {!prepare} stores the
    golden runs, and {!simulate} re-derives cycles via
    {!Sta.cycles_of_run} (its initiation interval does depend on the
    configuration's port counts).

    One [prepare] costs the same as one [Machine.simulate]; each further
    configuration costs only the replay — on the evaluation suite that is
    the difference between a 9-job smoke run and a 17 000-point sweep in
    the same wall-clock budget. *)

open Dae_ir

type plan
(** A compiled, lowered, digested kernel×architecture — no execution yet. *)

val plan :
  ?partition:Dae_core.Decouple.assignment -> Machine.arch -> Func.t -> plan
(** Compile [f] for [arch]: slice + {!Lower.compile} for the decoupled
    architectures, {!Sta.analyze}-ready for STA. Pure compilation — cheap
    enough to form cache keys for points that will never be simulated.
    [partition] slices along an N-way address-stream assignment (arch
    {!Machine.Dae} only; default: the classic 2-way split). The partition
    is baked into the lowered unit programs, so {!plan_digest} already
    distinguishes N-way plans. *)

val plan_digest : plan -> string
(** Content identity of the plan: architecture name plus
    {!Lower.digest} (decoupled) or a digest of the printed IR (STA).
    Equal digests make {!simulate} results interchangeable for the same
    invocation sequence and initial memory — the result cache's key folds
    this together with a workload-instance id and {!Config.key}. *)

val pipeline : plan -> Dae_core.Pipeline.t option
(** The compiled pipeline ([None] for STA) — the sweep engine feeds it to
    the static sizing analyzer without recompiling. *)

type prepared
(** Executed traces plus everything {!simulate} needs: per-invocation
    trace pairs (post oracle-filter), golden runs (STA), kill/commit
    counts, final memory, load subscribers. *)

exception Check_failed of string
(** The same exception as {!Machine.Check_failed} (an alias: a handler for
    either catches both): some invocation's functional run disagreed with
    the sequential golden model. *)

val prepare :
  plan ->
  invocations:Machine.invocation list ->
  mem:Interp.Memory.t ->
  prepared
(** Run the functional half once. [mem] is copied, never mutated.
    @raise Check_failed on golden disagreement. *)

val final_memory : prepared -> Interp.Memory.t
(** Final memory after the prepared invocation sequence — what
    {!simulate} returns in [Machine.result.memory]. Lets a cache-hit path
    rebuild a result's memory without a replay; shared, treat as
    read-only. *)

val trace_digest : prepared -> string
(** Digest of the stored per-invocation traces ({!Trace.digest} folded
    over all units, STA: over golden iteration counts). The leakage
    witness search compares it between two preparations of one plan to
    tell whether a flipped secret changed the traces at all. *)

val simulate :
  ?validate:bool ->
  ?w:Area.weights ->
  ?collect:bool ->
  ?record_mem:bool ->
  ?max_cycles:int ->
  cfg:Config.t ->
  prepared ->
  Machine.result
(** Re-time the stored traces under [cfg]. Cycle-identical to
    [Machine.simulate ~cfg] on the same kernel/invocations/memory —
    including {!Machine.result.stats} partitions and raised
    {!Timing.Deadlock}s. The returned [memory] field is shared between
    calls on one [prepared] (timing cannot change it); treat it as
    read-only. [validate] defaults to true; deadlock-boundary probes pass
    [~validate:false] to re-time under a rejected configuration.
    @raise Invalid_argument on an invalid configuration (when [validate]).
    @raise Timing.Deadlock when the configuration deadlocks the replay. *)

(** {1 Re-timed points}

    What one configuration comes to, in the form the result cache stores.
    [daec sweep], the bench's hierarchy jobs and the leakage witness
    search read their replays through it. *)

type status = Cycles of int | Deadlock

type point = {
  status : status;
  killed : int;  (** kill/commit counts; 0 on a deadlock *)
  committed : int;
  stats : (string * (string * int) list) list;
      (** the stall partition ({!Stats.export}); [[]] on a deadlock *)
}

val classify : (unit -> Machine.result) -> point
(** Run a simulation and classify it: a {!Timing.Deadlock} becomes
    [Deadlock], any other exception propagates. *)

val point :
  cache:Cache.t ->
  instance:string ->
  cfg:Config.t ->
  plan ->
  prepared Lazy.t ->
  point * bool
(** The memoized point of [plan] on workload [instance] (the cache
    identity of its invocations and memory) at [cfg], and whether it was
    served from [cache]. A miss forces [prepared] and re-times without
    {!Config.validate}, so capacity-0 probes work. The key folds
    {!Cache.version}, the payload tag ["sweep-point/1"], {!plan_digest},
    [instance] and {!Config.key}. *)
