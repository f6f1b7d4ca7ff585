(* Per-unit cycle-attribution counters (see stats.mli).

   A counter set is a flat int array indexed by cause, so merging is a
   pointwise add: associative, commutative, and O(causes) — the properties
   the invocation loop, the bench aggregator and the runner-merge
   regression test all lean on. *)

type cause =
  | Busy
  | Fifo_full
  | Fifo_empty
  | Gate_wait
  | Sched_wait
  | Lsq_alloc
  | Raw_wait
  | Port_contention
  | Poison_wait
  | Mem_wait
  | Drain
  | Mshr_full
  | Dram_bank

let all_causes =
  [
    Busy; Fifo_full; Fifo_empty; Gate_wait; Sched_wait; Lsq_alloc; Raw_wait;
    Port_contention; Poison_wait; Mem_wait; Drain; Mshr_full; Dram_bank;
  ]

(* The legacy causes existed before the memory hierarchy; [to_list] emits
   them unconditionally so scratchpad-mode JSON stays byte-identical, and
   appends the hierarchy-only causes only when nonzero. *)
let legacy_causes =
  [
    Busy; Fifo_full; Fifo_empty; Gate_wait; Sched_wait; Lsq_alloc; Raw_wait;
    Port_contention; Poison_wait; Mem_wait; Drain;
  ]

let n_causes = List.length all_causes

let index = function
  | Busy -> 0
  | Fifo_full -> 1
  | Fifo_empty -> 2
  | Gate_wait -> 3
  | Sched_wait -> 4
  | Lsq_alloc -> 5
  | Raw_wait -> 6
  | Port_contention -> 7
  | Poison_wait -> 8
  | Mem_wait -> 9
  | Drain -> 10
  | Mshr_full -> 11
  | Dram_bank -> 12

let cause_name = function
  | Busy -> "busy"
  | Fifo_full -> "fifo_full"
  | Fifo_empty -> "fifo_empty"
  | Gate_wait -> "gate_wait"
  | Sched_wait -> "sched_wait"
  | Lsq_alloc -> "lsq_alloc"
  | Raw_wait -> "raw_wait"
  | Port_contention -> "port_contention"
  | Poison_wait -> "poison_wait"
  | Mem_wait -> "mem_wait"
  | Drain -> "drain"
  | Mshr_full -> "mshr_full"
  | Dram_bank -> "dram_bank"

type t = int array

let create () = Array.make n_causes 0
let copy = Array.copy

let of_busy cycles =
  let t = create () in
  t.(index Busy) <- cycles;
  t

let add t c span = t.(index c) <- t.(index c) + span
let get t c = t.(index c)
let total t = Array.fold_left ( + ) 0 t

let merge_into ~dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src

let merge a b =
  let t = copy a in
  merge_into ~dst:t b;
  t

let equal (a : t) (b : t) = a = b
let to_list t =
  let legacy = List.map (fun c -> (cause_name c, get t c)) legacy_causes in
  let extra =
    List.filter_map
      (fun c -> if get t c > 0 then Some (cause_name c, get t c) else None)
      [ Mshr_full; Dram_bank ]
  in
  legacy @ extra

type keyed = (string * t) list

let merge_keyed (a : keyed) (b : keyed) : keyed =
  let tbl = Hashtbl.create 8 in
  let feed (k, c) =
    match Hashtbl.find_opt tbl k with
    | Some acc -> merge_into ~dst:acc c
    | None -> Hashtbl.add tbl k (copy c)
  in
  List.iter feed a;
  List.iter feed b;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)

let equal_keyed (a : keyed) (b : keyed) =
  List.length a = List.length b
  && List.for_all2 (fun (k1, c1) (k2, c2) -> k1 = k2 && equal c1 c2) a b

let export (keyed : keyed) =
  List.map
    (fun (unit, t) ->
      (unit, List.map (fun c -> (cause_name c, get t c)) all_causes))
    keyed

let pp_table ~total_cycles ppf (units : keyed) =
  let pct n =
    if total_cycles <= 0 then 0.
    else 100. *. float_of_int n /. float_of_int total_cycles
  in
  Fmt.pf ppf "%-16s" "cause";
  List.iter (fun (name, _) -> Fmt.pf ppf " %16s" name) units;
  Fmt.pf ppf "@.";
  List.iter
    (fun c ->
      if List.exists (fun (_, t) -> get t c > 0) units then begin
        Fmt.pf ppf "%-16s" (cause_name c);
        List.iter
          (fun (_, t) ->
            Fmt.pf ppf " %9d %5.1f%%" (get t c) (pct (get t c)))
          units;
        Fmt.pf ppf "@."
      end)
    all_causes;
  Fmt.pf ppf "%-16s" "total";
  List.iter (fun (_, t) -> Fmt.pf ppf " %9d %5.1f%%" (total t) (pct (total t))) units;
  Fmt.pf ppf "@."
