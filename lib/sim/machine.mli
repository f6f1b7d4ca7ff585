(** Top-level machine: compile a kernel for one of the four evaluated
    architectures and simulate a sequence of invocations (graph kernels run
    once per level/round, threading memory through).

    Every decoupled invocation is checked against the sequential golden
    model (final memory and per-array commit order) and the AGU/CU streams
    are checked against each other — a run that returns has proved its own
    sequential consistency. *)

open Dae_ir

type arch =
  | Sta  (** static HLS baseline *)
  | Dae  (** decoupling without speculation *)
  | Spec  (** the paper's contribution *)
  | Oracle  (** SPEC with mis-speculated requests filtered: an upper bound *)

val arch_name : arch -> string

type invocation = (string * Types.value) list

type timeline = {
  t_invocation : int;  (** 0-based invocation index *)
  t_agu : Trace.unit_trace;  (** as replayed (ORACLE: post-filter) *)
  t_aus : Trace.unit_trace array;
      (** extra access units of an N-way partition; [[||]] for 2-way *)
  t_cu : Trace.unit_trace;
  t_timing : Timing.result;
}
(** One invocation's replay, as consumed by {!Trace_export}. *)

type result = {
  arch : arch;
  cycles : int;
  invocations : int;
  killed_stores : int;
  committed_stores : int;
  misspec_rate : float;
  area : Area.breakdown;
  memory : Interp.Memory.t;  (** final memory, for workload-level checks *)
  pipeline : Dae_core.Pipeline.t option;  (** [None] for {!Sta} *)
  stats : Stats.keyed;
      (** per-unit cycle attribution merged over all invocations; every
          unit's counters sum exactly to [cycles] ({!Sta}: one unit
          ["STA"], all Busy) *)
  timelines : timeline list;
      (** per-invocation replays with channel-depth samples; empty unless
          [simulate ~collect:true] *)
  mem_events : Timing.mem_event array list;
      (** per-invocation committed-order memory event logs for the
          {!Mem_model} oracle; empty unless [simulate ~record_mem:true] *)
}

exception Check_failed of string

(** {1 Simulation steps}

    The chain every simulation runs: {!compile} once, {!execute} each
    invocation (the functional half), {!replay} the executed runs under a
    configuration (the timing half). {!simulate} streams them; {!Retime}
    folds the same steps over stored runs. *)

type lowered = {
  l_pipeline : Dae_core.Pipeline.t;
  l_program : Lower.t;
  l_subscribers : (int * Trace.unit_id list) list;
      (** per memory, the units its load values are delivered to *)
}

type compiled = {
  c_arch : arch;
  c_func : Func.t;  (** the sequential golden model *)
  c_lowered : lowered option;  (** [None] for {!Sta} *)
}

val compile :
  ?partition:Dae_core.Decouple.assignment -> arch -> Func.t -> compiled
(** Slice ({!Dae_core.Pipeline.compile}) and lower the decoupled
    architectures; STA compiles nothing. Normalizes [f] in place. *)

type exec
(** The functional state threaded through an invocation sequence: the
    golden memory and the {!tally}. *)

type tally
(** What a result reports of the functional half: the simulated memory
    and the kill/commit counts so far. Stored runs keep only this, not the
    golden memory. *)

val start : compiled -> Interp.Memory.t -> exec
(** Fresh state over copies of the memory; the argument is never mutated. *)

val tally : exec -> tally
(** Shared, not copied: it keeps counting as [exec] executes further. *)

val tally_memory : tally -> Interp.Memory.t

type run =
  | Golden of Interp.result  (** STA: the golden run its cycles derive from *)
  | Traces of Trace.unit_trace array
      (** decoupled: the unit traces in dense order, ORACLE-filtered *)

val execute : compiled -> exec -> invocation -> run
(** One invocation's functional half: golden run, lowered co-simulation,
    golden check, kill/commit counts and, for ORACLE, the trace filter.
    @raise Check_failed when the run disagrees with the golden model. *)

val replay :
  ?w:Area.weights ->
  ?collect:bool ->
  ?record_mem:bool ->
  ?max_cycles:int ->
  ?scheduler:Timing.scheduler ->
  cfg:Config.t ->
  compiled ->
  tally ->
  run Seq.t ->
  result
(** Time every run under [cfg] (no {!Config.validate}) and assemble the
    result. The kill/commit counts and memory are read from the tally
    once the sequence is exhausted, so a lazily executed sequence works. *)

(** The steps in one streaming pass: each invocation is executed and
    re-timed before the next one runs, so only one invocation's traces are
    alive at a time.

    [collect] (default false) additionally keeps every invocation's traces,
    retire times and channel-depth samples for the timeline exporter — it
    never changes cycles or stats. [validate] (default true) runs
    {!Config.validate} before simulating; deadlock-boundary probes pass
    [~validate:false] to drive the timing engine with a rejected
    configuration. [record_mem] (default false) keeps each invocation's
    memory event log; [max_cycles] caps each invocation's replay (the
    qcheck harness's hang guard — overruns raise {!Timing.Timing_error}).
    [partition] slices the kernel along an N-way address-stream assignment
    ({!Dae_core.Decouple.run_n}); it requires arch {!Dae} (ignored by
    {!Sta}, rejected by the pipeline for {!Spec}/{!Oracle}) and defaults
    to the classic 2-way split. [scheduler] selects the timing engine's
    stall-path scheduler (default {!Timing.Event_wheel}); the seed
    calendar is the bit-identical reference the equivalence tests select.
    @raise Invalid_argument on an invalid configuration.
    @raise Check_failed when a decoupled run disagrees with the golden
    model. *)
val simulate :
  ?cfg:Config.t ->
  ?validate:bool ->
  ?w:Area.weights ->
  ?collect:bool ->
  ?record_mem:bool ->
  ?max_cycles:int ->
  ?partition:Dae_core.Decouple.assignment ->
  ?scheduler:Timing.scheduler ->
  arch ->
  Func.t ->
  invocations:invocation list ->
  mem:Interp.Memory.t ->
  result

val pp_stats : result Fmt.t
(** The stall-attribution breakdown of {!result.stats} as a table (one
    column per unit, one row per nonzero cause, cycles and share). *)
