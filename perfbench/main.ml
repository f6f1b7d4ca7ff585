(* The daec benchmark: one workload per process.

     perfbench/main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
                        [--quick] [--spans FILE] [--write-pins]

   Run it from the root of the repository (run.py does).

   Set-up (make the inputs from the seed and declare the jobs) runs once
   untimed, which also finds the seed's graphs, then [timed_setups] times
   more; setup_s is the median of those. Then rounds repeat until T
   seconds have passed: a round clears the content cache (untimed), then
   runs one cold pass over the workload's jobs and [warm_passes] warm
   passes that find the cache the cold pass filled; the heap is compacted
   (untimed) before each pass.
   Every pass renders a sorted "key value" table of its results. The
   first table is diffed against the pins
   (perfbench/expected/<workload>.cycles; --write-pins rewrites them) when
   the seed is 0 at full scale, and every later table against the first,
   so a warm, traced or repeated pass that disagrees counts as failed. Simulation and reference-check failures,
   sweep cross-check and sizing violations, corrupt cache entries and
   misses in a warm pass count as failed too.

   --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
   the per-layer ones: traced and untraced rounds alternate, spans (see
   Span) are on in the traced ones, and every traced table must equal the
   untraced one. The last line of standard output is the result as one
   JSON object. Everything runs on one domain. *)

module Cache = Sim.Cache

let now () = float_of_int (Span.now_ns ()) /. 1e9

(* A set-up takes from tens of microseconds (dse-sweep) to a few
   milliseconds, so its median is taken over many: at least
   [min_setups], and until they have allocated [setup_words]. The count
   follows allocation, not a time budget: the garbage of the set-ups
   shapes the heap the rounds start from, and so peak RSS, which then
   repeats exactly for a seed. *)
let min_setups = 25
let setup_words = 50e6

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- result tables and pins ------------------------------------------------ *)

let render (results : Workloads.result list) =
  Span.span "render" (fun () ->
      List.sort compare
        (List.map (fun r -> (r.Workloads.r_key, r.Workloads.r_value)) results))

let table_text table =
  String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") table)

let read_table path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line -> (
      match String.index_opt line ' ' with
      | Some i ->
        go
          (( String.sub line 0 i,
             String.sub line (i + 1) (String.length line - i - 1) )
          :: acc)
      | None -> go acc)
  in
  go []

(* one message per key whose value differs or that only one side has *)
let diff ~what expected actual =
  let index t =
    let h = Hashtbl.create 256 in
    List.iter (fun (k, v) -> Hashtbl.replace h k v) t;
    h
  in
  let e = index expected and a = index actual in
  List.filter_map
    (fun (k, v) ->
      match Hashtbl.find_opt a k with
      | Some v' when v' = v -> None
      | Some v' -> Some (Printf.sprintf "%s: %s expects %s, got %s" k what v v')
      | None -> Some (Printf.sprintf "%s: missing (%s has it)" k what))
    expected
  @ List.filter_map
      (fun (k, _) ->
        if Hashtbl.mem e k then None
        else Some (Printf.sprintf "%s: not in %s" k what))
      actual

(* --- rounds ------------------------------------------------------------------ *)

type pass_out = {
  wall : float;
  cycles : int;  (** simulated in this pass *)
  attempted : int;
  failures : string list;
  gc : Gc.stat * Gc.stat;  (** before and after the pass *)
}

type round = {
  traced : bool;
  cold : pass_out;
  warms : pass_out list;
  bytes : int;  (** cache payload on disk after the round *)
  counters : Cache.counters;
}

let round_wall r = List.fold_left (fun a p -> a +. p.wall) r.cold.wall r.warms

let run_round ~(w : Workloads.t) ~pass ~cache_dir ~check ~traced =
  let cache = Cache.create ~dir:cache_dir () in
  ignore (Cache.clear cache);
  Span.enabled := traced;
  let one ~warm =
    (* every pass starts from the heap a fresh process would have, not
       from the garbage of the pass before *)
    Gc.compact ();
    let c0 = Cache.counters cache and g0 = Gc.quick_stat () in
    let t0 = now () in
    let results, table =
      Span.span "pass" (fun () ->
          let results = pass ~traced ~cache in
          (results, render results))
    in
    let wall = now () -. t0 in
    let c1 = Cache.counters cache and g1 = Gc.quick_stat () in
    let misses = c1.Cache.misses - c0.Cache.misses in
    let corrupt = c1.Cache.corrupt - c0.Cache.corrupt in
    {
      wall;
      cycles = List.fold_left (fun a r -> a + r.Workloads.r_cycles) 0 results;
      attempted = List.length results;
      failures =
        List.concat_map (fun r -> r.Workloads.r_failures) results
        @ check table
        @ (if warm && misses > 0 then
             [ Printf.sprintf "warm pass: %d cache misses" misses ]
           else [])
        @
        if corrupt > 0 then [ Printf.sprintf "%d corrupt cache entries" corrupt ]
        else [];
      gc = (g0, g1);
    }
  in
  let cold = one ~warm:false in
  let warms = List.init w.Workloads.warm_passes (fun _ -> one ~warm:true) in
  Span.enabled := false;
  {
    traced;
    cold;
    warms;
    bytes = (if traced then (Cache.disk_stats cache).Cache.bytes else 0);
    counters = Cache.counters cache;
  }

(* --- metrics ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let from_status () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          else go ()
        in
        go ())
  in
  try from_status ()
  with _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let end_to_end ~setups rounds =
  let colds = List.map (fun r -> r.cold) rounds in
  [
    ("wall_s", median (List.map (fun p -> p.wall) colds), "s");
    ( "sim_mcycles_per_s",
      median (List.map (fun p -> float_of_int p.cycles /. p.wall /. 1e6) colds),
      "Mcycles/s" );
    ( "warm_wall_s",
      median (List.concat_map (fun r -> List.map (fun p -> p.wall) r.warms) rounds),
      "s" );
    ("setup_s", median setups, "s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

(* Layers every workload enters report their self time; for a layer some
   workload bypasses only calls and share (self time over the traced pass
   time) are reported, so no time metric is a constant zero. *)
let universal_layers =
  [
    "Pipeline.compile"; "Lower.compile"; "Lower.digest"; "Interp.run";
    "Exec.run_lowered"; "Exec.check_against_golden";
    "Timing.run_units"; "Sizing.analyze"; "Area.decoupled"; "render";
  ]

let partial_layers =
  [
    "Kernels.build"; "Timing.run_units_collect"; "Timing.oracle_filter";
    "Sta.cycles_of_run"; "Area.sta"; "Checker.run";
    "Taint.analyze"; "Sizing.bound_of_timelines"; "Cache.find"; "Cache.store";
    "Kernels.check"; "Machine.simulate";
  ]

let per_layer ~traced ~untraced =
  let n = float_of_int (List.length traced) in
  let stat name =
    Option.value (Span.find name)
      ~default:{ Span.calls = 0; self_ns = 0; self_words = 0.; total_ns = 0 }
  in
  let pass_ns = float_of_int (stat "pass").Span.total_ns in
  let self_ns name = float_of_int (stat name).Span.self_ns in
  let count name = float_of_int (Span.count name) in
  let per_round x = x /. n in
  let ratio a b = if b > 0. then a /. b else 0. in
  let layer ~self name =
    let st = stat name in
    (if self then [ (name ^ ".self_s", per_round (self_ns name) /. 1e9, "s") ]
     else [])
    @ [
        (name ^ ".calls", per_round (float_of_int st.Span.calls), "count");
        (name ^ ".share", ratio (self_ns name) pass_ns, "ratio");
      ]
    @
    if self then
      [ (name ^ ".minor_mwords", per_round st.Span.self_words /. 1e6, "Mwords") ]
    else []
  in
  let counters f = List.fold_left (fun a r -> a + f r.counters) 0 traced in
  let hits = counters (fun c -> c.Cache.hits)
  and misses = counters (fun c -> c.Cache.misses) in
  let gc f =
    per_round
      (List.fold_left
         (fun a p -> a +. f (fst p.gc) (snd p.gc))
         0.
         (List.concat_map (fun r -> r.cold :: r.warms) traced))
  in
  List.concat_map (layer ~self:true) universal_layers
  @ List.concat_map (layer ~self:false) partial_layers
  @ [
      ( "Timing.run_units.events",
        per_round (count "Timing.run_units.events"),
        "count" );
      ( "Timing.run_units.ns_per_event",
        ratio (self_ns "Timing.run_units") (count "Timing.run_units.events"),
        "ns" );
      ( "Timing.run_units.deadlocks",
        per_round (count "Timing.run_units.deadlocks"),
        "count" );
      ( "Exec.run_lowered.ns_per_step",
        ratio (self_ns "Exec.run_lowered") (count "Exec.run_lowered.steps"),
        "ns" );
      ("Interp.run.steps", per_round (count "Interp.run.steps"), "count");
      ("Retime.prepare.calls", per_round (count "Retime.prepare.calls"), "count");
      ( "Retime.simulate.calls",
        per_round (count "Retime.simulate.calls"),
        "count" );
      ( "Retime.replays_per_prepare",
        ratio (count "Retime.simulate.calls") (count "Retime.prepare.calls"),
        "ratio" );
      ( "Cache.store.bytes",
        per_round (float_of_int (List.fold_left (fun a r -> a + r.bytes) 0 traced)),
        "bytes" );
      ( "Cache.find.hit_ratio",
        ratio (float_of_int hits) (float_of_int (hits + misses)),
        "ratio" );
      ( "Cache.find.corrupt",
        per_round (float_of_int (counters (fun c -> c.Cache.corrupt))),
        "count" );
      ( "gc.minor_mwords",
        gc (fun a b -> (b.Gc.minor_words -. a.Gc.minor_words) /. 1e6),
        "Mwords" );
      ( "gc.promoted_mwords",
        gc (fun a b -> (b.Gc.promoted_words -. a.Gc.promoted_words) /. 1e6),
        "Mwords" );
      ( "gc.major_collections",
        gc (fun a b ->
            float_of_int (b.Gc.major_collections - a.Gc.major_collections)),
        "count" );
      ( "trace_overhead_ratio",
        ratio
          (median (List.map round_wall traced))
          (median (List.map round_wall untraced)),
        "ratio" );
      ("trace.coverage", 1. -. ratio (self_ns "pass") pass_ns, "ratio");
    ]

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* --- main ------------------------------------------------------------------- *)

let usage () =
  Fmt.epr
    "usage: main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] \
     [--quick] [--spans FILE] [--write-pins]@.workloads: %s@."
    (String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 10. in
  let trace = ref false and quick = ref false and spans = ref None in
  let write_pins = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := List.find_opt (fun w -> w.Workloads.name = v) Workloads.all;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s when s >= 0 -> seed := s
      | _ -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := s
      | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--spans" :: v :: rest ->
      spans := Some v;
      parse rest
    | "--write-pins" :: rest ->
      write_pins := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match !workload with Some w -> w | None -> usage () in
  let scale = if !quick then Workloads.Quick else Workloads.Full in
  let pinned = !seed = 0 && scale = Workloads.Full in
  if !write_pins && not pinned then begin
    Fmt.epr "--write-pins needs seed 0 at full scale@.";
    exit 2
  end;
  if !spans <> None then Span.kept := Some (ref []);
  let pass = w.Workloads.setup ~scale ~seed:!seed in
  let setups =
    let until = Gc.minor_words () +. setup_words in
    let rec go acc n =
      if n >= min_setups && Gc.minor_words () >= until then acc
      else begin
        let t0 = now () in
        let (_ : Workloads.pass) = w.Workloads.setup ~scale ~seed:!seed in
        go ((now () -. t0) :: acc) (n + 1)
      end
    in
    go [] 0
  in
  let cache_dir =
    Filename.concat "_perfbench"
      (Printf.sprintf "%s-%d" w.Workloads.name (Unix.getpid ()))
  and pin_file =
    Filename.concat "perfbench/expected" (w.Workloads.name ^ ".cycles")
  in
  (* the first table is the reference every later pass must reproduce *)
  let reference = ref None in
  let check table =
    match !reference with
    | Some t -> diff ~what:"the first pass" t table
    | None ->
      reference := Some table;
      if pinned && not !write_pins then
        if Sys.file_exists pin_file then
          diff ~what:"the pins" (read_table pin_file) table
        else [ pin_file ^ ": no pins" ]
      else []
  in
  let deadline = now () +. !seconds in
  let rounds = ref [] in
  while List.length !rounds < (if !trace then 2 else 1) || now () < deadline do
    let traced = !trace && List.length !rounds mod 2 = 0 in
    rounds := run_round ~w ~pass ~cache_dir ~check ~traced :: !rounds
  done;
  let rounds = List.rev !rounds in
  ignore (Cache.clear (Cache.create ~dir:cache_dir ()));
  List.iter
    (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
    [ cache_dir; Filename.dirname cache_dir ];
  (match !reference with
  | Some table when !write_pins ->
    let oc = open_out pin_file in
    output_string oc (table_text table);
    close_out oc
  | _ -> ());
  Option.iter Span.write_chrome !spans;
  let passes = List.concat_map (fun r -> r.cold :: r.warms) rounds in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 passes in
  let failures = List.concat_map (fun p -> p.failures) passes in
  List.iteri (fun i f -> if i < 20 then Fmt.epr "FAILED %s@." f) failures;
  let failed = min attempted (List.length failures) in
  let metrics =
    if !trace then
      per_layer
        ~traced:(List.filter (fun r -> r.traced) rounds)
        ~untraced:(List.filter (fun r -> not r.traced) rounds)
    else end_to_end ~setups rounds
  in
  Fmt.pr "%s: %d set-ups, %d rounds, %d passes, %d operations, %d failed@."
    w.Workloads.name (List.length setups) (List.length rounds)
    (List.length passes) attempted failed;
  let walls ps =
    String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) ps)
  in
  Fmt.pr "  cold pass walls (s): %s@.  warm pass walls (s): %s@."
    (walls (List.map (fun r -> r.cold) rounds))
    (walls (List.concat_map (fun r -> r.warms) rounds));
  List.iter
    (fun (name, v, unit) -> Fmt.pr "  %-40s %14.6g %s@." name v unit)
    metrics;
  Fmt.pr
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}@."
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Span.json_string name) (json_number v) (Span.json_string unit))
          metrics))
