(** Static channel sizing and deadlock-freedom over the {!Channel} graph.

    The core is an abstract causality replay: a latency-free mirror of the
    timing engine (same per-unit out-of-order window, in-order retirement
    per channel, per-array LSQ occupancy with store values applied in
    allocation order, worst-case address-oblivious RAW, subscriber-space
    reservation at load issue) run over compositions of the checker's
    per-segment event streams. Completion of every composition under a
    capacity assignment shows each wait cycle of the channel/dependence
    graph has positive slack — the configuration cannot deadlock on any
    covered trace shape; a stuck composition yields the blocked wait cycle
    as a diagnosis. Gates are not replayed (the DAE-mode AGU serialization
    only removes runahead, it adds no tokens); the sim cross-validation in
    the test suite and bench sweep backs the approximation.

    On top of the replay the analyzer computes, per channel: the minimum
    safe depth (smallest capacity whose compositions all complete), a
    slack-matched recommendation for full-rate streaming over the longest
    mismatched reconvergent paths, and a criticality score predicting
    which channel bounds steady-state decoupling (the expected dominant
    [Fifo_full] source). It also emits a static per-event cycle-bound
    coefficient: a completed run at a validated configuration takes at
    most [bound_per_event * events + bound_fill] cycles for a trace of
    [events] entries. *)

module Config = Dae_sim.Config

type sized = {
  sz_chan : Channel.chan;
  sz_configured : int;  (** depth under the analyzed [Config.t] *)
  sz_min : int;  (** minimum safe depth (abstract replay completes) *)
  sz_matched : int;  (** slack-matched recommendation, [>= sz_min] *)
  sz_score : int;  (** criticality: rate × drain service span *)
}

type verdict =
  | Deadlock_free
  | Deadlock of string list
      (** each entry describes one zero-slack wait cycle *)

type t = {
  channels : sized list;
  verdict : verdict;  (** for the analyzed configuration *)
  critical : Channel.kind option;
      (** the predicted dominant [Fifo_full] source; [None] only when the
          pipeline moves no tokens *)
  min_cfg : Config.t;
      (** the analyzed config with each channel-class knob lowered to the
          analyzer's minimum over that class *)
  bound_per_event : int;
  bound_fill : int;
  graph : Channel.t;
}

(** Analyze one compiled pipeline against [cfg]. [Error] propagates the
    segment-budget overrun of the graph extraction. *)
val analyze :
  ?path_limit:int ->
  cfg:Config.t ->
  Dae_core.Pipeline.t ->
  (t, Segments.budget) result

val bound : t -> events:int -> iters:int -> int
(** [bound_per_event * events + unit_ii * iters + bound_fill] — the iters
    term pays for loop iterations that move no tokens (the unit scheduler
    still charges them [unit_ii] cycles each). *)

val bound_of_timelines : t -> Dae_sim.Machine.timeline list -> int
(** Sum of {!bound} over collected per-invocation timelines (a simulation
    run with [~collect:true]): the analyzer's total predicted ceiling for
    that run's [cycles]. *)

val deadlocks : t -> bool

val critical_decrement : t -> (Channel.kind * Config.t) option
(** The boundary probe: [min_cfg] with the critical channel's class knob
    at (class minimum − 1) — the configuration the simulator must either
    dynamically deadlock on or run no faster on ({!violations}). [None]
    when there is no critical channel. *)

(** {1 The claim, checked in the simulator} *)

type probe = {
  p_kind : Channel.kind;  (** the critical channel *)
  p_capacity : int;  (** its class capacity in the probe: minimum − 1 *)
  p_outcome : (int, string) result;
      (** [Ok cycles], or [Error] with the engine's deadlock message *)
}

type validation = {
  v_min : (int * int, string) result;
      (** at [min_cfg]: [Ok (cycles, bound)] with {!bound_of_timelines}'s
          bound, or [Error] with the engine's deadlock message *)
  v_probe : probe option;
      (** at {!critical_decrement}; [None] without a critical channel *)
}

val validate : t -> Dae_sim.Retime.prepared -> validation
(** Replay a run of the analyzed pipeline twice: at [min_cfg], collecting
    timelines for the bound, and at {!critical_decrement} without
    {!Dae_sim.Config.validate}. *)

val violations : validation -> string list
(** The verdict on a validation, one message per broken rule: the minima
    complete within the bound; a capacity-0 probe deadlocks; any other
    probe deadlocks or runs no faster than at the minima. *)

val pp : Format.formatter -> t -> unit
