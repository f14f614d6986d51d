module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Eval = Lr_eval.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let and_circuit () =
  let c = N.create ~input_names:(names "x" 2) ~output_names:(names "z" 1) in
  N.set_output c 0 (N.and_ c (N.input c 0) (N.input c 1));
  c

let or_circuit () =
  let c = N.create ~input_names:(names "x" 2) ~output_names:(names "z" 1) in
  N.set_output c 0 (N.or_ c (N.input c 0) (N.input c 1));
  c

let test_mixture_composition () =
  let rng = Rng.create 3 in
  let patterns = Eval.mixture ~rng ~num_inputs:300 ~count:3000 in
  check_int "count" 3000 (Array.length patterns);
  let density lo hi =
    let total = ref 0 in
    for i = lo to hi - 1 do
      total := !total + Bv.popcount patterns.(i)
    done;
    Float.of_int !total /. Float.of_int ((hi - lo) * 300)
  in
  check "first third is 1-heavy" true (density 0 1000 > 0.65);
  check "second third is 0-heavy" true (density 1000 2000 < 0.35);
  let u = density 2000 3000 in
  check "last third is balanced" true (u > 0.45 && u < 0.55)

let test_self_accuracy () =
  let c = and_circuit () in
  let acc = Eval.accuracy ~count:1000 ~rng:(Rng.create 1) ~golden:c ~candidate:c () in
  Alcotest.(check (float 0.0)) "perfect self-match" 1.0 acc

let test_wrong_circuit_detected () =
  let acc =
    Eval.accuracy ~count:3000 ~rng:(Rng.create 1) ~golden:(and_circuit ())
      ~candidate:(or_circuit ()) ()
  in
  (* AND and OR differ whenever exactly one input is 1 *)
  check "well below 1" true (acc < 0.9);
  check "but not zero" true (acc > 0.2)

let test_all_outputs_must_match () =
  (* candidate correct on output 0, wrong on output 1: hit rate equals the
     rate at which output 1 happens to agree *)
  let golden =
    let c = N.create ~input_names:(names "x" 2) ~output_names:(names "z" 2) in
    N.set_output c 0 (N.input c 0);
    N.set_output c 1 (N.input c 1);
    c
  in
  let candidate =
    let c = N.create ~input_names:(names "x" 2) ~output_names:(names "z" 2) in
    N.set_output c 0 (N.input c 0);
    N.set_output c 1 (N.not_ c (N.input c 1));
    c
  in
  let acc =
    Eval.accuracy ~count:2000 ~rng:(Rng.create 5) ~golden ~candidate ()
  in
  Alcotest.(check (float 0.0)) "never all-match" 0.0 acc;
  let rng = Rng.create 6 in
  let patterns = Eval.mixture ~rng ~num_inputs:2 ~count:1000 in
  let per = Eval.per_output_accuracy ~patterns ~golden ~candidate in
  Alcotest.(check (float 0.0)) "output 0 perfect" 1.0 per.(0);
  Alcotest.(check (float 0.0)) "output 1 always wrong" 0.0 per.(1)

let test_same_patterns_same_score () =
  let rng = Rng.create 9 in
  let patterns = Eval.mixture ~rng ~num_inputs:2 ~count:500 in
  let a1 = Eval.accuracy_on ~patterns ~golden:(and_circuit ()) ~candidate:(or_circuit ()) () in
  let a2 = Eval.accuracy_on ~patterns ~golden:(and_circuit ()) ~candidate:(or_circuit ()) () in
  Alcotest.(check (float 0.0)) "deterministic" a1 a2

let tests =
  [
    Alcotest.test_case "mixture composition" `Quick test_mixture_composition;
    Alcotest.test_case "self accuracy = 1" `Quick test_self_accuracy;
    Alcotest.test_case "wrong circuit detected" `Quick test_wrong_circuit_detected;
    Alcotest.test_case "all outputs must match" `Quick test_all_outputs_must_match;
    Alcotest.test_case "deterministic scoring" `Quick test_same_patterns_same_score;
  ]
