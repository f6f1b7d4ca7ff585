(** Cycle attribution: where did every simulated cycle of every unit go?

    The timing engine classifies each unit (AGU, CU, and each DU array)
    once per visited cycle-span into exactly one {!cause}, so for every
    unit the per-cause counters partition its total simulated cycles —
    [total c = Timing.result.cycles], no cycle counted twice or dropped.
    That invariant is what the property tests in [test/test_stats.ml]
    assert, and it is what makes a stall breakdown trustworthy: loss of
    decoupling shows up as CU [Fifo_empty] starvation, §8.2.1 store-queue
    pressure as DU [Lsq_alloc] backpressure.

    Counters are plain int arrays: merging across invocations, jobs and
    runner domains is associative and commutative ({!merge_keyed}), which
    the bench harness relies on when aggregating. *)

type cause =
  | Busy  (** retired/served at least one event this cycle *)
  | Fifo_full  (** blocked pushing into a full downstream FIFO *)
  | Fifo_empty
      (** starved: waiting on an empty (or not-yet-arrived) input FIFO *)
  | Gate_wait
      (** serialized behind an unresolved control gate (Figure 2(b)) *)
  | Sched_wait  (** pipeline pacing: next event's issue slot is in the future *)
  | Lsq_alloc  (** DU: a ready request was turned away by a full LQ/SQ *)
  | Raw_wait  (** DU: loads blocked on unresolved older same-address stores *)
  | Port_contention
      (** DU: more admissible memory operations than the scalar port admits *)
  | Poison_wait
      (** DU: store-queue head awaiting its value/poison verdict from the CU *)
  | Mem_wait  (** DU: only in-flight SRAM accesses; nothing else to do *)
  | Drain  (** finished (or empty) while the rest of the machine runs *)
  | Mshr_full
      (** DU (hierarchy mode): an admissible load missed but every MSHR is
          occupied — the non-blocking cache turned it away this cycle *)
  | Dram_bank
      (** DU (hierarchy mode): in-flight misses only, and the oldest one
          was delayed by DRAM bank/bus contention rather than pure latency *)

val all_causes : cause list
(** Every cause, in declaration order — also the canonical render order. *)

val cause_name : cause -> string
(** Stable snake_case identifier, used in JSON and table headers. *)

type t
(** A mutable counter set: one int per {!cause}. *)

val create : unit -> t
val copy : t -> t

val of_busy : int -> t
(** A counter set with [cycles] attributed to {!Busy} — the whole
    attribution of a single-unit statically-scheduled (STA) run. *)

val add : t -> cause -> int -> unit
(** [add t c span] attributes [span] cycles to cause [c]. *)

val get : t -> cause -> int

val total : t -> int
(** Sum over all causes — must equal the unit's total simulated cycles. *)

val merge_into : dst:t -> t -> unit
val merge : t -> t -> t

val equal : t -> t -> bool

val to_list : t -> (string * int) list
(** [(cause_name, count)] in {!all_causes} order. The pre-hierarchy causes
    are always present; [Mshr_full]/[Dram_bank] are appended only when
    nonzero, so scratchpad-mode output is byte-identical to older
    versions. *)

type keyed = (string * t) list
(** Per-unit counter sets, sorted by unit name ("AGU", "CU", "DU:a", …). *)

val merge_keyed : keyed -> keyed -> keyed
(** Key-wise {!merge}; the result is sorted by key. Associative and
    commutative up to the sort, so any fold order over per-job results —
    serial or from the domain pool — aggregates identically. *)

val equal_keyed : keyed -> keyed -> bool

val export : keyed -> (string * (string * int) list) list
(** The complete partition as plain data: per unit, every cause in
    {!all_causes} order, zeros included — a canonical form two independent
    simulations can be compared on bit-for-bit, and that marshals without
    the abstract {!t}. *)

val pp_table : total_cycles:int -> keyed Fmt.t
(** One row per unit: total, then each cause as cycles and percent of
    [total_cycles]. *)
