(* The SoA simulation kernel's topological batching contract, and the
   end-to-end bit-identity leg for the engines that do all of the
   simulation-heavy work (fraig, CEC, self-checks, sweep): a learn with
   the full sweep and full checks is identical at jobs=1 and jobs=4, down
   to the query attribution. *)

module Rng = Lr_bitvec.Rng
module Io = Lr_netlist.Io
module Soa = Lr_kernel.Soa
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* random circuits come from the shared recipe generator in [Prop] so a
   failure here shrinks the same way the differential properties do *)
let random_recipe rng size = Prop.(arb_recipe.gen) rng size

(* ---------------- topological batching ---------------- *)

let test_batching () =
  let rng = Rng.create 101 in
  for size = 1 to 20 do
    let c = Prop.build_netlist (random_recipe rng size) in
    let s = Soa.of_netlist c in
    let n = Soa.num_nodes s in
    let sched = Soa.schedule s in
    check_int "schedule covers every node" n (Array.length sched);
    let seen = Array.make n false in
    Array.iter
      (fun k ->
        check "schedule has no duplicates" false seen.(k);
        seen.(k) <- true)
      sched;
    let offs = Soa.level_offsets s in
    check_int "one offset per level boundary"
      (Soa.num_levels s + 1)
      (Array.length offs);
    check_int "first offset" 0 offs.(0);
    check_int "last offset" n offs.(Soa.num_levels s);
    (* recover each node's level from its batch, then demand that every
       read fanin lives in a strictly earlier batch *)
    let level = Array.make n 0 in
    for l = 0 to Soa.num_levels s - 1 do
      check "offsets nondecreasing" true (offs.(l) <= offs.(l + 1));
      for i = offs.(l) to offs.(l + 1) - 1 do
        level.(sched.(i)) <- l
      done
    done;
    for k = 0 to n - 1 do
      if Soa.depends_on_arg0 s k then
        check "arg0 scheduled strictly earlier" true
          (level.(Soa.arg0 s k) < level.(k));
      if Soa.depends_on_arg1 s k then
        check "arg1 scheduled strictly earlier" true
          (level.(Soa.arg1 s k) < level.(k))
    done
  done

(* ---------------- end-to-end bit-identity ---------------- *)

let fast =
  {
    Config.default with
    Config.support_rounds = 192;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    template_samples = 32;
    (* the full sweep plus full self-checks route fraig, CEC, the table
       and cover checks and the ODC stage into the comparison *)
    sweep = Config.Sweep_full;
    check_level = Config.Full;
  }

let learn ~jobs =
  let spec = Cases.find "case_7" in
  let box = Cases.blackbox ~budget:150_000 spec in
  let report = Learner.learn ~config:{ fast with Config.seed = 5; jobs } box in
  ( Io.write report.Learner.circuit,
    report.Learner.queries,
    report.Learner.phase_queries,
    report.Learner.checks_verified,
    report.Learner.sweep_removed )

let test_bit_identity () =
  let net1, q1, pq1, cv1, sr1 = learn ~jobs:1 in
  let net4, q4, pq4, cv4, sr4 = learn ~jobs:4 in
  Alcotest.(check string) "jobs=4: bit-identical netlist" net1 net4;
  check_int "jobs=4: equal queries" q1 q4;
  Alcotest.(check (list (pair string int)))
    "jobs=4: equal phase queries" pq1 pq4;
  check_int "jobs=4: equal checks verified" cv1 cv4;
  check_int "jobs=4: equal sweep removals" sr1 sr4;
  check "the full sweep removed gates" true (sr1 > 0);
  check "the full checks ran" true (cv1 > 0)

let tests =
  [
    Alcotest.test_case "topological batching" `Quick test_batching;
    Alcotest.test_case "jobs=1 vs 4, sweep and checks full" `Quick
      test_bit_identity;
  ]
