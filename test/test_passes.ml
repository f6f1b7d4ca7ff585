(* Every checked compile in this suite is also protocol-checked. *)
let () = Dae_analysis.Checker.install ()

(* Constant folding, φ→select conversion, and the §10 vector-width timing
   extension. *)

open Dae_ir

let tc = Alcotest.test_case
let check = Alcotest.check

(* --- constant folding -------------------------------------------------------- *)

let interp_same (f : Func.t) ~args ~mem_spec transform =
  let mem1 = Interp.Memory.create mem_spec in
  let mem2 = Interp.Memory.create mem_spec in
  let r1 = Interp.run f ~args ~mem:mem1 in
  transform f;
  Verify.check_exn f;
  let r2 = Interp.run f ~args ~mem:mem2 in
  check Alcotest.bool "same memory" true (Interp.Memory.equal mem1 mem2);
  check Alcotest.bool "same result" true (r1.Interp.ret = r2.Interp.ret)

let test_fold_arithmetic () =
  let f =
    Parser.parse
      {|
      func cf(n: %0) {
      bb0:
        %1 = add 2, 3
        %2 = mul %1, 1
        %3 = add %2, 0
        %4 = sub %3, %3
        %5 = add %4, %0
        ret %5
      }
      |}
  in
  let folds = Const_fold.run f in
  check Alcotest.bool "folded several" true (folds >= 4);
  Verify.check_exn f;
  let r =
    Interp.run f ~args:[ ("n", Types.Vint 7) ] ~mem:(Interp.Memory.create [])
  in
  (* the whole chain folds to %0 *)
  check Alcotest.bool "value preserved" true (r.Interp.ret = Some (Types.Vint 7));
  check Alcotest.int "no instructions left" 0
    (Func.fold_instrs f (fun n _ -> n + 1) 0)

let test_fold_enables_branch_simplification () =
  let f =
    Parser.parse
      {|
      func cb(n: %0) {
      bb0:
        %1 = cmp slt 2, 5
        br %1, bb1, bb2
      bb1:
        store a[0], 1 !mem0
        ret
      bb2:
        store a[0], 2 !mem1
        ret
      }
      |}
  in
  ignore (Const_fold.run f);
  Simplify.run f;
  Verify.check_exn f;
  check Alcotest.int "collapsed to one block" 1 (List.length f.Func.layout)

let test_fold_identity_phi () =
  let f =
    Parser.parse
      {|
      func ip(n: %0) {
      bb0:
        %1 = cmp slt %0, 5
        br %1, bb1, bb2
      bb1:
        br bb3
      bb2:
        br bb3
      bb3:
        %2 = phi i32 [bb1: %0], [bb2: %0]
        store a[0], %2 !mem0
        ret
      }
      |}
  in
  let folds = Const_fold.run f in
  check Alcotest.bool "φ folded" true (folds >= 1);
  Verify.check_exn f

let fold_preserves_semantics =
  QCheck.Test.make ~name:"const_fold preserves interpreter semantics"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let g = Dae_workloads.Gen.generate ~seed () in
      let f = g.Dae_workloads.Gen.func in
      let mem1 = g.Dae_workloads.Gen.mem () in
      let mem2 = g.Dae_workloads.Gen.mem () in
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem1);
      ignore (Const_fold.run f);
      (match Verify.check f with
      | Ok () -> ()
      | Error _ -> QCheck.Test.fail_report "verifier rejected folded IR");
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem2);
      Interp.Memory.equal mem1 mem2)

(* --- φ → select ---------------------------------------------------------------- *)

let test_phi_to_select_diamond () =
  let f =
    Parser.parse
      {|
      func d(n: %0) {
      bb0:
        %1 = cmp slt %0, 5
        %2 = add %0, 10
        %3 = add %0, 20
        br %1, bb1, bb2
      bb1:
        br bb3
      bb2:
        br bb3
      bb3:
        %4 = phi i32 [bb1: %2], [bb2: %3]
        ret %4
      }
      |}
  in
  interp_same f ~args:[ ("n", Types.Vint 3) ] ~mem_spec:[] (fun f ->
      check Alcotest.int "one conversion" 1 (Phi_to_select.run f));
  (* now with the other input *)
  let r =
    Interp.run f ~args:[ ("n", Types.Vint 9) ] ~mem:(Interp.Memory.create [])
  in
  check Alcotest.bool "false arm selected" true
    (r.Interp.ret = Some (Types.Vint 29))

let test_phi_to_select_triangle () =
  let f =
    Parser.parse
      {|
      func t(n: %0) {
      bb0:
        %1 = cmp slt %0, 5
        %2 = add %0, 100
        br %1, bb1, bb2
      bb1:
        br bb2
      bb2:
        %3 = phi i32 [bb0: %0], [bb1: %2]
        ret %3
      }
      |}
  in
  interp_same f ~args:[ ("n", Types.Vint 2) ] ~mem_spec:[] (fun f ->
      check Alcotest.int "one conversion" 1 (Phi_to_select.run f))

let test_phi_to_select_skips_unavailable () =
  (* the incoming value is computed inside an arm: not available at the
     join, conversion must not fire *)
  let f =
    Parser.parse
      {|
      func u(n: %0) {
      bb0:
        %1 = cmp slt %0, 5
        br %1, bb1, bb2
      bb1:
        %2 = load a[%0] !mem0
        br bb3
      bb2:
        br bb3
      bb3:
        %3 = phi i32 [bb1: %2], [bb2: 0]
        store b[0], %3 !mem1
        ret
      }
      |}
  in
  check Alcotest.int "no conversion" 0 (Phi_to_select.run f)

let test_phi_to_select_skips_loop_header () =
  let f = Fixtures.fig1 () in
  let before = Printer.func_to_string f in
  let n = Phi_to_select.run f in
  check Alcotest.int "loop header φ untouched" 0 n;
  check Alcotest.string "unchanged" before (Printer.func_to_string f)

let select_preserves_semantics =
  QCheck.Test.make ~name:"phi_to_select preserves interpreter semantics"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let g = Dae_workloads.Gen.generate ~seed () in
      let f = g.Dae_workloads.Gen.func in
      let mem1 = g.Dae_workloads.Gen.mem () in
      let mem2 = g.Dae_workloads.Gen.mem () in
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem1);
      ignore (Phi_to_select.run f);
      (match Verify.check f with
      | Ok () -> ()
      | Error _ -> QCheck.Test.fail_report "verifier rejected converted IR");
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem2);
      Interp.Memory.equal mem1 mem2)

(* --- partial if-conversion -------------------------------------------------------- *)

let test_if_convert_pure_diamond () =
  let f =
    Parser.parse
      {|
      func ic(n: %0) {
      bb0:
        %1 = cmp slt %0, 5
        br %1, bb1, bb2
      bb1:
        %2 = add %0, 10
        br bb3
      bb2:
        %3 = mul %0, 2
        br bb3
      bb3:
        %4 = phi i32 [bb1: %2], [bb2: %3]
        ret %4
      }
      |}
  in
  interp_same f ~args:[ ("n", Types.Vint 3) ] ~mem_spec:[] (fun f ->
      check Alcotest.int "one diamond flattened" 1 (If_convert.run f));
  check Alcotest.int "two blocks remain" 2 (List.length f.Func.layout);
  let r =
    Interp.run f ~args:[ ("n", Types.Vint 9) ] ~mem:(Interp.Memory.create [])
  in
  check Alcotest.bool "false arm value" true (r.Interp.ret = Some (Types.Vint 18))

let test_if_convert_triangle () =
  let f =
    Parser.parse
      {|
      func ict(n: %0) {
      bb0:
        %1 = cmp slt %0, 5
        br %1, bb1, bb2
      bb1:
        %2 = add %0, 100
        br bb2
      bb2:
        %3 = phi i32 [bb0: %0], [bb1: %2]
        ret %3
      }
      |}
  in
  interp_same f ~args:[ ("n", Types.Vint 2) ] ~mem_spec:[] (fun f ->
      check Alcotest.int "triangle flattened" 1 (If_convert.run f))

let test_if_convert_keeps_effectful_arms () =
  let f =
    Parser.parse
      {|
      func ice(n: %0) {
      bb0:
        %1 = cmp slt %0, 5
        br %1, bb1, bb2
      bb1:
        store a[0], 1 !mem0
        br bb2
      bb2:
        ret
      }
      |}
  in
  check Alcotest.int "store arm untouched" 0 (If_convert.run f)

let if_convert_preserves_semantics =
  QCheck.Test.make ~name:"if_convert preserves interpreter semantics"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let g = Dae_workloads.Gen.generate ~seed () in
      let f = g.Dae_workloads.Gen.func in
      let mem1 = g.Dae_workloads.Gen.mem () in
      let mem2 = g.Dae_workloads.Gen.mem () in
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem1);
      ignore (If_convert.run f);
      (match Verify.check f with
      | Ok () -> ()
      | Error _ -> QCheck.Test.fail_report "verifier rejected if-converted IR");
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem2);
      Interp.Memory.equal mem1 mem2)

(* --- loop-invariant code motion ---------------------------------------------------- *)

let test_licm_hoists_fw_address_part () =
  (* fw's innermost loop computes i*n and i*n+k every iteration: both are
     invariant in j and must move out *)
  let k = Dae_workloads.Kernels.fw ~n:4 () in
  let f = k.Dae_workloads.Kernels.build () in
  let mem1 = k.Dae_workloads.Kernels.init_mem () in
  let mem2 = k.Dae_workloads.Kernels.init_mem () in
  ignore (Interp.run f ~args:[ ("n", Types.Vint 4) ] ~mem:mem1);
  let moved = Licm.run f in
  check Alcotest.bool "moved invariants" true (moved >= 2);
  Verify.check_exn f;
  ignore (Interp.run f ~args:[ ("n", Types.Vint 4) ] ~mem:mem2);
  check Alcotest.bool "semantics preserved" true (Interp.Memory.equal mem1 mem2)

let test_licm_leaves_variant_code () =
  let f = Fixtures.fig1 () in
  (* fig1's loop body has nothing invariant (everything depends on i) *)
  check Alcotest.int "nothing to move" 0 (Licm.run f)

let test_licm_never_moves_memory_ops () =
  let k = Dae_workloads.Kernels.fw ~n:4 () in
  let f = k.Dae_workloads.Kernels.build () in
  let mem_ops_in_loops f =
    let loops = Loops.compute f in
    List.fold_left
      (fun acc (l : Loops.loop) ->
        acc
        + List.fold_left
            (fun acc bid ->
              List.fold_left
                (fun acc (i : Instr.t) ->
                  match i.Instr.kind with
                  | Instr.Load _ | Instr.Store _ -> acc + 1
                  | _ -> acc)
                acc (Func.block f bid).Block.instrs)
            0 l.Loops.body)
      0 loops.Loops.loops
  in
  let before = mem_ops_in_loops f in
  ignore (Licm.run f);
  check Alcotest.bool "memory ops did not decrease below innermost count" true
    (mem_ops_in_loops f >= before - 0)

let licm_preserves_semantics =
  QCheck.Test.make ~name:"licm preserves interpreter semantics" ~count:60
    QCheck.small_nat
    (fun seed ->
      let g = Dae_workloads.Gen.generate ~seed ~inner_loops:true () in
      let f = g.Dae_workloads.Gen.func in
      let mem1 = g.Dae_workloads.Gen.mem () in
      let mem2 = g.Dae_workloads.Gen.mem () in
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem1);
      ignore (Licm.run f);
      (match Verify.check f with
      | Ok () -> ()
      | Error _ -> QCheck.Test.fail_report "verifier rejected LICM output");
      ignore (Interp.run f ~args:g.Dae_workloads.Gen.args ~mem:mem2);
      Interp.Memory.equal mem1 mem2)

(* --- DOT export --------------------------------------------------------------------- *)

let test_dot_export_structure () =
  let p = Dae_core.Pipeline.compile ~check:true ~mode:Dae_core.Pipeline.Spec (Fixtures.fig4 ()) in
  let dot = Dot.to_string p.Dae_core.Pipeline.cu in
  check Alcotest.bool "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  (* every block appears as a node *)
  List.iter
    (fun bid ->
      let needle = Fmt.str "bb%d [" bid in
      let found =
        let n = String.length dot and m = String.length needle in
        let rec go i = i + m <= n && (String.sub dot i m = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool (Fmt.str "node bb%d present" bid) true found)
    p.Dae_core.Pipeline.cu.Func.layout

(* --- vectorized speculation (§10) ----------------------------------------------- *)

let run_spec ?cfg (k : Dae_workloads.Kernels.t) =
  Dae_sim.Machine.simulate ?cfg Dae_sim.Machine.Spec
    (k.Dae_workloads.Kernels.build ())
    ~invocations:(k.Dae_workloads.Kernels.invocations ())
    ~mem:(k.Dae_workloads.Kernels.init_mem ())

let test_vector_width_helps_multi_request_kernels () =
  (* bc pushes several sigma-channel requests per iteration: a wider
     request vector lifts the per-channel port limit *)
  let g = Dae_workloads.Graph.small ~nodes:48 ~edges:300 () in
  let k = Dae_workloads.Kernels.bc ~graph:g () in
  let cycles w =
    (run_spec ~cfg:{ Dae_sim.Config.default with Dae_sim.Config.vector_width = w } k)
      .Dae_sim.Machine.cycles
  in
  check Alcotest.bool "width 4 beats width 1" true (cycles 4 < cycles 1)

let test_vector_width_preserves_correctness () =
  List.iter
    (fun (k : Dae_workloads.Kernels.t) ->
      let r =
        run_spec
          ~cfg:{ Dae_sim.Config.default with Dae_sim.Config.vector_width = 8 }
          k
      in
      match k.Dae_workloads.Kernels.check r.Dae_sim.Machine.memory with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s @ width 8: %s" k.Dae_workloads.Kernels.name m)
    (Dae_workloads.Kernels.test_suite ())

let test_vector_width_never_slower =
  (* not strictly monotone: wider acceptance shifts LSQ occupancy patterns
     by a few cycles — the claim is "no meaningful regression" *)
  QCheck.Test.make ~name:"wider vectors never meaningfully slow SPEC down"
    ~count:25 QCheck.small_nat
    (fun seed ->
      let g = Dae_workloads.Gen.generate ~seed () in
      let sim w =
        (Dae_sim.Machine.simulate
           ~cfg:{ Dae_sim.Config.default with Dae_sim.Config.vector_width = w }
           Dae_sim.Machine.Spec g.Dae_workloads.Gen.func
           ~invocations:[ g.Dae_workloads.Gen.args ]
           ~mem:(g.Dae_workloads.Gen.mem ()))
          .Dae_sim.Machine.cycles
      in
      let w1 = sim 1 and w4 = sim 4 in
      w4 <= w1 + (w1 / 20) + 20)

let () =
  Alcotest.run "passes"
    [
      ( "const-fold",
        [
          tc "arithmetic chains" `Quick test_fold_arithmetic;
          tc "exposes branch folding" `Quick
            test_fold_enables_branch_simplification;
          tc "identity φ" `Quick test_fold_identity_phi;
        ] );
      ( "phi-to-select",
        [
          tc "diamond" `Quick test_phi_to_select_diamond;
          tc "triangle" `Quick test_phi_to_select_triangle;
          tc "unavailable value skipped" `Quick
            test_phi_to_select_skips_unavailable;
          tc "loop header untouched" `Quick test_phi_to_select_skips_loop_header;
        ] );
      ( "if-convert",
        [
          tc "pure diamond" `Quick test_if_convert_pure_diamond;
          tc "triangle" `Quick test_if_convert_triangle;
          tc "effectful arm kept" `Quick test_if_convert_keeps_effectful_arms;
        ] );
      ( "licm",
        [
          tc "hoists fw address parts" `Quick test_licm_hoists_fw_address_part;
          tc "leaves variant code" `Quick test_licm_leaves_variant_code;
          tc "memory ops stay" `Quick test_licm_never_moves_memory_ops;
        ] );
      ("dot", [ tc "export structure" `Quick test_dot_export_structure ]);
      ( "vector (§10)",
        [
          tc "width helps multi-request kernels" `Quick
            test_vector_width_helps_multi_request_kernels;
          tc "width 8 stays correct on all kernels" `Quick
            test_vector_width_preserves_correctness;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ fold_preserves_semantics; select_preserves_semantics;
            if_convert_preserves_semantics; licm_preserves_semantics;
            test_vector_width_never_slower ] );
    ]
