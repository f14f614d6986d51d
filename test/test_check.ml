(* Tests for the Lr_check subsystem: structural lint, BLIF source
   diagnostics, cone statistics, and the semantic self-checks behind
   [Config.check_level = Full] — including the mutation test proving a
   broken optimization pass is caught with a real counterexample. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Box = Lr_blackbox.Blackbox
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module Aig = Lr_aig.Aig
module Opt = Lr_aig.Opt
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Finding = Lr_check.Finding
module Lint = Lr_check.Lint
module Selfcheck = Lr_check.Selfcheck

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let fresh ni no =
  N.create ~input_names:(names "x" ni) ~output_names:(names "f" no)

let has_rule rule findings =
  List.exists (fun f -> f.Finding.rule = rule) findings

let rule_count rule findings =
  List.length (List.filter (fun f -> f.Finding.rule = rule) findings)

(* ---------------- structural lint ---------------- *)

let test_lint_clean () =
  let c = fresh 2 1 in
  N.set_output c 0 (N.and_ c (N.input c 0) (N.input c 1));
  check_int "clean circuit has no findings" 0 (List.length (Lint.netlist c))

let test_lint_dead_logic () =
  let c = fresh 2 1 in
  let live = N.xor_ c (N.input c 0) (N.input c 1) in
  ignore (N.or_ c (N.input c 0) (N.input c 1));
  ignore (N.nand_ c (N.input c 0) (N.input c 1));
  N.set_output c 0 live;
  let fs = Lint.netlist c in
  check "dead logic flagged" true (has_rule "dead-logic" fs);
  check "dead logic is a warning, not an error" true (Finding.errors fs = [])

let test_lint_constant_output () =
  let c = fresh 2 2 in
  N.set_output c 0 (N.const_false c);
  N.set_output c 1 (N.or_ c (N.input c 0) (N.input c 1));
  let fs = Lint.netlist c in
  check "constant output flagged" true (has_rule "constant-output" fs);
  let f = List.find (fun f -> f.Finding.rule = "constant-output") fs in
  check "constant-output is Info" true (f.Finding.severity = Finding.Info);
  check "names the output" true (f.Finding.where = "output f0")

let test_lint_aig () =
  let a = Aig.create ~num_inputs:2 ~num_outputs:1 in
  let x = Aig.input_lit a 0 and y = Aig.input_lit a 1 in
  let live = Aig.and_lit a x y in
  ignore (Aig.or_lit a x y);
  Aig.set_output a 0 live;
  let fs = Lint.aig a in
  check "AIG dead logic flagged" true (has_rule "dead-logic" fs);
  check_int "compaction clears it" 0 (List.length (Lint.aig (Aig.compact a)))

(* ---------------- cone statistics ---------------- *)

let test_cones () =
  let c = fresh 3 2 in
  let ab = N.and_ c (N.input c 0) (N.input c 1) in
  N.set_output c 0 (N.or_ c ab (N.input c 2));
  N.set_output c 1 (N.not_ c ab);
  match Lint.cones c with
  | [ k0; k1 ] ->
      check_str "first cone name" "f0" k0.Lint.name;
      check_int "f0 gates" 2 k0.Lint.gates;
      check_int "f0 depth" 2 k0.Lint.depth;
      check_int "f0 support" 3 k0.Lint.support;
      check_int "f1 gates" 1 k1.Lint.gates;
      check_int "f1 inverters" 1 k1.Lint.inverters;
      check_int "f1 support" 2 k1.Lint.support;
      (* the AND feeds both outputs: whole-network fanout 2 *)
      check_int "shared gate fanout" 2 k0.Lint.max_fanout
  | l -> Alcotest.failf "expected 2 cones, got %d" (List.length l)

(* ---------------- BLIF source diagnostics ---------------- *)

let test_blif_source_cycle () =
  let fs =
    Lint.blif_source
      ".model m\n.inputs a\n.outputs y\n.names a z y\n11 1\n.names y z\n1 1\n.end\n"
  in
  check "cycle reported" true (has_rule "blif-source" fs);
  check "cycle is an error" true (Finding.errors fs <> []);
  let f = List.hd (Finding.errors fs) in
  check "message names the loop" true
    (String.length f.Finding.message > 0
    && String.sub f.Finding.message 0 21 = "combinational cycle t")

let test_blif_source_multiple () =
  (* one file, several independent problems: an undriven net, a signal
     driven twice, and a double inverter — all reported in one pass *)
  let fs =
    Lint.blif_source
      (".model m\n.inputs a b\n.outputs y\n"
     ^ ".names a b t\n11 1\n.names a t\n0 1\n" (* t driven twice *)
     ^ ".names u t n1\n11 1\n" (* u undriven *)
     ^ ".names a n2\n0 1\n.names n2 n3\n0 1\n" (* double inverter *)
     ^ ".names t n3 y\n11 1\n.end\n")
  in
  check "all findings share the blif-source rule" true
    (List.for_all (fun f -> f.Finding.rule = "blif-source") fs);
  check_int "two errors (dup driver, undriven)" 2
    (List.length (Finding.errors fs));
  let contains s sub =
    let n = String.length sub in
    let found = ref false in
    for i = 0 to String.length s - n do
      if String.sub s i n = sub then found := true
    done;
    !found
  in
  check "double inverter warned" true
    (List.exists
       (fun f ->
         f.Finding.severity = Finding.Warning
         && contains f.Finding.message "inverter of inverter")
       fs);
  check "dead table warned" true
    (List.exists (fun f -> contains f.Finding.message "drives no primary") fs)

(* ---------------- semantic self-checks ---------------- *)

let test_verify_netlists_pass () =
  let c1 = fresh 2 1 and c2 = fresh 2 1 in
  N.set_output c1 0 (N.xor_ c1 (N.input c1 0) (N.input c1 1));
  (* same function, different structure: (a|b) & ~(a&b) *)
  let a = N.input c2 0 and b = N.input c2 1 in
  N.set_output c2 0 (N.and_ c2 (N.or_ c2 a b) (N.nand_ c2 a b));
  Selfcheck.verify_netlists ~stage:"t" c1 c2;
  check "equivalent netlists verify" true true

let test_verify_aigs_mutation () =
  (* the mutation test: a "rewrite" that turns an XOR into an OR must be
     caught, and the reported counterexample must actually distinguish
     the two circuits *)
  let build op =
    let c = fresh 3 1 in
    let a = N.input c 0 and b = N.input c 1 and d = N.input c 2 in
    N.set_output c 0 (N.and_ c (op c a b) d);
    c
  in
  let good = build N.xor_ and broken = build N.or_ in
  match
    Selfcheck.verify_aigs ~stage:"aig.rewrite" (Aig.of_netlist good)
      (Aig.of_netlist broken)
  with
  | () -> Alcotest.fail "broken rewrite not caught"
  | exception Selfcheck.Check_failed { stage; cex; _ } ->
      check_str "stage is reported" "aig.rewrite" stage;
      check_int "cex covers the inputs" 3 (Bv.length cex);
      check "cex distinguishes the circuits" false
        (Bv.equal (N.eval good cex) (N.eval broken cex))

let test_opt_compress_verify_hook () =
  let spec = Cases.find "case_7" in
  let aig = Aig.of_netlist (Cases.build spec) in
  let stages = ref [] in
  let verify ~stage before after =
    stages := stage :: !stages;
    Selfcheck.verify_aigs ~stage before after
  in
  let out = Opt.compress ~max_rounds:1 ~rng:(Rng.create 7) ~verify aig in
  check "optimization did not grow the AIG" true
    (Aig.num_ands out <= Aig.num_ands aig);
  List.iter
    (fun s -> check ("pass verified: " ^ s) true (List.mem s !stages))
    [ "aig.balance"; "aig.rewrite"; "aig.cut-rewrite"; "aig.fraig" ]

let test_verify_table () =
  let c = fresh 4 1 in
  N.set_output c 0 (N.and_ c (N.input c 1) (N.input c 3));
  let to_full m =
    let a = Bv.create 4 in
    Bv.set a 1 (m land 1 = 1);
    Bv.set a 3 (m land 2 = 2);
    a
  in
  let good m = m = 3 in
  Selfcheck.verify_table ~stage:"cover-min" ~circuit:c ~output:0 ~bits:2
    ~to_full ~expected:good;
  (match
     Selfcheck.verify_table ~stage:"cover-min" ~circuit:c ~output:0 ~bits:2
       ~to_full
       ~expected:(fun m -> m = 2)
   with
  | () -> Alcotest.fail "wrong table not caught"
  | exception Selfcheck.Check_failed { output; cex; _ } ->
      check_int "offending output" 0 output;
      (* the cex must be an assignment where circuit and table disagree *)
      check "cex disagrees with claimed table" true
        (let bit = Bv.get (N.eval c cex) 0 in
         let m = (if Bv.get cex 1 then 1 else 0) lor (if Bv.get cex 3 then 2 else 0) in
         bit <> (m = 2)));
  check "table verification round trip" true true

let test_verify_cover () =
  let c = fresh 2 1 in
  let a = N.input c 0 and b = N.input c 1 in
  N.set_output c 0 (N.and_ c a b);
  let vars = [| a; b |] in
  let good = Cover.of_cubes 2 [ Cube.of_literals 2 [ (0, true); (1, true) ] ] in
  Selfcheck.verify_cover ~stage:"cover-min" ~circuit:c ~output:0 ~vars
    ~cover:good ~complemented:false ();
  (* complemented form: offset of AND is ~a + ~b *)
  let offset =
    Cover.of_cubes 2
      [ Cube.of_literals 2 [ (0, false) ]; Cube.of_literals 2 [ (1, false) ] ]
  in
  Selfcheck.verify_cover ~stage:"cover-min" ~circuit:c ~output:0 ~vars
    ~cover:offset ~complemented:true ();
  let wrong = Cover.of_cubes 2 [ Cube.of_literals 2 [ (0, true) ] ] in
  match
    Selfcheck.verify_cover ~stage:"cover-min" ~circuit:c ~output:0 ~vars
      ~cover:wrong ~complemented:false ()
  with
  | () -> Alcotest.fail "wrong cover not caught"
  | exception Selfcheck.Check_failed { cex; _ } ->
      check "cex disagrees with the cover" true
        (Bv.get (N.eval c cex) 0 <> Cover.eval wrong cex)

(* ---------------- checked pipeline mode ---------------- *)

let fast_full =
  {
    Config.improved with
    Config.support_rounds = 192;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    template_samples = 32;
    check_level = Config.Full;
  }

let test_learn_full_checked () =
  let spec = Cases.find "case_7" in
  let report = Learner.learn ~config:fast_full (Cases.blackbox spec) in
  check "full mode ran self-checks" true (report.Learner.checks_verified > 0);
  check "lint ran and found no errors" true
    (Finding.errors report.Learner.lint_findings = []);
  check "check level recorded" true
    (report.Learner.check_level = Config.Full);
  (* checked and unchecked runs must learn the identical circuit *)
  let off =
    Learner.learn
      ~config:{ fast_full with Config.check_level = Config.Off }
      (Cases.blackbox spec)
  in
  check_int "check level does not change the learned circuit"
    (N.size off.Learner.circuit)
    (N.size report.Learner.circuit);
  check "unchecked report carries no lint" true
    (off.Learner.lint_findings = [] && off.Learner.checks_verified = 0)

let tests =
  [
    Alcotest.test_case "lint: clean circuit" `Quick test_lint_clean;
    Alcotest.test_case "lint: dead logic" `Quick test_lint_dead_logic;
    Alcotest.test_case "lint: constant output" `Quick test_lint_constant_output;
    Alcotest.test_case "lint: AIG dead logic" `Quick test_lint_aig;
    Alcotest.test_case "cone statistics" `Quick test_cones;
    Alcotest.test_case "BLIF source: cycle" `Quick test_blif_source_cycle;
    Alcotest.test_case "BLIF source: multiple findings" `Quick
      test_blif_source_multiple;
    Alcotest.test_case "verify: equivalent netlists" `Quick
      test_verify_netlists_pass;
    Alcotest.test_case "verify: broken rewrite caught (mutation)" `Quick
      test_verify_aigs_mutation;
    Alcotest.test_case "verify: Opt.compress hook" `Quick
      test_opt_compress_verify_hook;
    Alcotest.test_case "verify: conquered table" `Quick test_verify_table;
    Alcotest.test_case "verify: minimized cover" `Quick test_verify_cover;
    Alcotest.test_case "learn: full checked mode" `Quick
      test_learn_full_checked;
  ]
