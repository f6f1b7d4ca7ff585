(* The static address-stream partitioner, held to its contract:

   - the forced 2-way partition (Decouple.trivial) is invisible — same
     slices, same sizing, same traces, same cycles and stall partitions
     as today's partition-less compile, as a qcheck property over the §6
     randomized kernel generator;
   - every test-suite kernel's inferred N-way DAG compiles, passes the
     generalized soundness checker with no errors, and simulates to the
     kernel's reference result with exact per-unit stall partitions;
   - on a >= 3-unit DAG (mm) the sizing analyzer's minimum depths are
     safe under Retime.simulate and one step below any channel class's
     minimum is the deadlock boundary: statically stuck, and dynamically
     deadlocked or no faster. *)

open Dae_workloads
module G = Gen
module M = Dae_sim.Machine
module R = Dae_sim.Retime
module S = Dae_sim.Stats
module P = Dae_core.Pipeline
module D = Dae_core.Decouple
module Pt = Dae_analysis.Partition
module Sz = Dae_analysis.Sizing
module Ch = Dae_analysis.Channel
module Diag = Dae_analysis.Diag

let tc = Alcotest.test_case
let check = Alcotest.check
let cfg0 = Dae_sim.Config.default

let prepare ?partition (k : Kernels.t) =
  R.prepare
    (R.plan ?partition M.Dae (k.Kernels.build ()))
    ~invocations:(k.Kernels.invocations ())
    ~mem:(k.Kernels.init_mem ())

(* --- every kernel: infer, verify, simulate the N-way DAG --------------------- *)

let test_suite_nway () =
  List.iter
    (fun (k : Kernels.t) ->
      let name = k.Kernels.name in
      let pa = Pt.analyze (k.Kernels.build ()) in
      (* deterministic report *)
      check Alcotest.string (name ^ " deterministic")
        (Fmt.str "%a" Pt.pp pa)
        (Fmt.str "%a" Pt.pp (Pt.analyze (k.Kernels.build ())));
      (* single ownership: every array in exactly one cluster *)
      let owned = List.concat_map (fun c -> c.Pt.cl_arrays) pa.Pt.clusters in
      check Alcotest.int (name ^ " arrays owned once") pa.Pt.n_arrays
        (List.length (List.sort_uniq compare owned));
      (* edges stay inside the emitted unit range, never self-loops *)
      let n = List.length pa.Pt.clusters in
      check Alcotest.int (name ^ " n_access") n
        pa.Pt.assignment.D.n_access;
      List.iter
        (fun (e : Pt.edge) ->
          check Alcotest.bool (name ^ " edge in range") true
            (e.Pt.e_src >= 0 && e.Pt.e_src < n && e.Pt.e_dst >= 0
           && e.Pt.e_dst < n && e.Pt.e_src <> e.Pt.e_dst))
        pa.Pt.edges;
      (* the generalized checker accepts the DAG *)
      let p =
        P.compile ~mode:P.Dae ~partition:pa.Pt.assignment
          (k.Kernels.build ())
      in
      let ds = Dae_analysis.Checker.run p in
      check Alcotest.int (name ^ " checker errors") 0 (Diag.errors ds);
      (* the N-way pipeline simulates to the reference result (prepare
         itself golden-checks the functional run) *)
      let r = R.simulate ~cfg:cfg0 (prepare ~partition:pa.Pt.assignment k) in
      (match k.Kernels.check r.M.memory with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
      List.iter
        (fun (u, c) ->
          check Alcotest.int (name ^ " " ^ u ^ " partitions") r.M.cycles
            (S.total c))
        r.M.stats)
    (Kernels.test_suite ())

(* --- mm: a >= 3-unit DAG with the deadlock boundary on every class ----------- *)

let test_mm_dag_boundary () =
  let k =
    match Kernels.by_name (Kernels.test_suite ()) "mm" with
    | Some k -> k
    | None -> Alcotest.fail "mm not in test suite"
  in
  let pa = Pt.analyze (k.Kernels.build ()) in
  check Alcotest.bool "mm has >= 3 units" true
    (List.length pa.Pt.clusters >= 3);
  check Alcotest.bool "mm DAG has edges" true (pa.Pt.edges <> []);
  let p =
    P.compile ~mode:P.Dae ~partition:pa.Pt.assignment (k.Kernels.build ())
  in
  match Sz.analyze ~cfg:cfg0 p with
  | Error _ -> Alcotest.fail "mm: segment budget exceeded"
  | Ok sz ->
    check Alcotest.bool "mm deadlock-free at defaults" false
      (Sz.deadlocks sz);
    let prepared = prepare ~partition:pa.Pt.assignment k in
    (match k.Kernels.check (R.final_memory prepared) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "mm reference check: %s" e);
    let v = Sz.validate sz prepared in
    check (Alcotest.list Alcotest.string) "mm sizing violations" []
      (Sz.violations v);
    let cycles_at_min, _ = Result.get_ok v.Sz.v_min in
    (* one step below any class minimum is the boundary *)
    let knobs =
      List.sort_uniq compare
        (List.map (fun (s : Sz.sized) -> Ch.knob s.Sz.sz_chan.Ch.kind)
           sz.Sz.channels)
    in
    check Alcotest.bool "mm uses several channel classes" true
      (List.length knobs >= 2);
    List.iter
      (fun knob ->
        let s =
          List.find
            (fun (s : Sz.sized) -> Ch.knob s.Sz.sz_chan.Ch.kind = knob)
            sz.Sz.channels
        in
        let kind = s.Sz.sz_chan.Ch.kind in
        let m = Ch.capacity sz.Sz.min_cfg kind in
        let probe = Ch.with_capacity sz.Sz.min_cfg kind (m - 1) in
        (* statically stuck: some composition no longer completes *)
        (match Sz.analyze ~cfg:probe p with
        | Ok sz' ->
          check Alcotest.bool (knob ^ " static deadlock at min-1") true
            (Sz.deadlocks sz')
        | Error _ -> Alcotest.failf "%s: segment budget exceeded" knob);
        if m - 1 = 0 then begin
          (match Dae_sim.Config.validate probe with
          | () -> Alcotest.failf "%s: capacity 0 passed validate" knob
          | exception Invalid_argument _ -> ());
          match R.simulate ~validate:false ~cfg:probe prepared with
          | (_ : M.result) ->
            Alcotest.failf "%s: expected a dynamic deadlock at min-1" knob
          | exception Dae_sim.Timing.Deadlock _ -> ()
        end
        else
          match R.simulate ~validate:false ~cfg:probe prepared with
          | r' ->
            check Alcotest.bool (knob ^ " min-1 no faster") true
              (r'.M.cycles >= cycles_at_min)
          | exception Dae_sim.Timing.Deadlock _ -> ())
      knobs

(* --- qcheck: the forced 2-way partition is invisible ------------------------- *)

let stats_list (r : M.result) =
  List.map (fun (u, c) -> (u, S.to_list c)) r.M.stats

let gen_trivial_identical (g : G.t) =
  match P.compile ~mode:P.Dae (Dae_ir.Func.clone g.G.func) with
  | exception P.Compile_error _ -> true
  | p0 ->
    let p1 =
      P.compile ~mode:P.Dae ~partition:D.trivial
        (Dae_ir.Func.clone g.G.func)
    in
    let pr f = Fmt.str "%a" Dae_ir.Printer.pp_func f in
    (* identical slices, no extra units *)
    pr p0.P.agu = pr p1.P.agu
    && pr p0.P.cu = pr p1.P.cu
    && p1.P.aus = []
    (* identical sizing *)
    && (match (Sz.analyze ~cfg:cfg0 p0, Sz.analyze ~cfg:cfg0 p1) with
       | Ok s0, Ok s1 ->
         let key (s : Sz.sized) =
           ( Ch.name s.Sz.sz_chan.Ch.kind,
             s.Sz.sz_configured,
             s.Sz.sz_min,
             s.Sz.sz_matched )
         in
         List.map key s0.Sz.channels = List.map key s1.Sz.channels
         && s0.Sz.verdict = s1.Sz.verdict
         && s0.Sz.bound_per_event = s1.Sz.bound_per_event
         && s0.Sz.bound_fill = s1.Sz.bound_fill
       | Error _, Error _ -> true
       | _ -> false)
    &&
    (* identical plans, traces, cycles and stall partitions *)
    let pl0 = R.plan M.Dae (Dae_ir.Func.clone g.G.func)
    and pl1 =
      R.plan ~partition:D.trivial M.Dae (Dae_ir.Func.clone g.G.func)
    in
    R.plan_digest pl0 = R.plan_digest pl1
    &&
    let prep pl =
      R.prepare pl ~invocations:[ g.G.args ] ~mem:(g.G.mem ())
    in
    let pr0 = prep pl0 and pr1 = prep pl1 in
    R.trace_digest pr0 = R.trace_digest pr1
    &&
    let r0 = R.simulate ~cfg:cfg0 pr0 and r1 = R.simulate ~cfg:cfg0 pr1 in
    r0.M.cycles = r1.M.cycles && stats_list r0 = stats_list r1

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"forced 2-way partition is bit-identical" ~count:30
      small_nat
      (fun seed -> gen_trivial_identical (Fixtures.gen_cfg ~seed));
    Test.make ~name:"same, with stores on several arrays" ~count:10 small_nat
      (fun seed ->
        gen_trivial_identical
          (Fixtures.gen_cfg_multi ~inner_loops:false ~seed ()));
  ]

let () =
  Alcotest.run "partition"
    [
      ( "nway",
        [
          tc "suite DAGs verify and simulate" `Quick test_suite_nway;
          tc "mm DAG sizing boundary" `Quick test_mm_dag_boundary;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
