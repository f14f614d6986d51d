(* Regression pins. The query-path pins are digests of support-
   identification statistics and of learned FBDT covers on two real cases
   at fixed seeds, recorded from the Bv-per-pattern toggle implementation
   that the word-native query path replaced; any change in RNG draws,
   query order or accounting shows up here. The SAT-sweeping pins below
   were recorded from the two separate fraig and equivalence-class loops
   that the shared [Fraig.classes] loop replaced. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module Box = Lr_blackbox.Blackbox
module Ps = Lr_sampling.Pattern_sampling
module Fbdt = Lr_fbdt.Fbdt
module Oracle = Lr_fbdt.Oracle
module Cases = Lr_cases.Cases

let box_of name = Cases.blackbox ~budget:400_000 (Cases.find name)

let stats_text (s : Ps.stats) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun row ->
      Array.iter (fun d -> Buffer.add_string b (string_of_int d ^ ",")) row;
      Buffer.add_char b '\n')
    s.Ps.dependency;
  Array.iter (fun o -> Buffer.add_string b (string_of_int o ^ ";")) s.Ps.ones;
  Printf.bprintf b "\n%d %d" s.Ps.samples s.Ps.rounds;
  Buffer.contents b

(* Unconstrained 200 rounds (four blocks, a partial last one, three
   biases) and a constrained run, plus the queries they cost. *)
let sampling_digest name =
  let box = box_of name in
  let ni = Box.num_inputs box in
  let top =
    Ps.run ~rounds:200 ~rng:(Rng.create 5) box ~constraint_:(Cube.top ni) ()
  in
  let cube =
    Cube.of_literals ni [ (0, true); (ni - 1, false); (ni / 2, true) ]
  in
  let sub = Ps.run ~rounds:70 ~rng:(Rng.create 6) box ~constraint_:cube () in
  Digest.to_hex
    (Digest.string
       (stats_text top ^ "|" ^ stats_text sub ^ "|"
       ^ string_of_int (Box.queries_used box)))

(* The Bv oracle, built literally as external callers build it. *)
let oracle_of shard po =
  {
    Oracle.arity = Box.num_inputs shard;
    query =
      (fun arr -> Array.map (fun o -> Bv.get o po) (Box.query_many shard arr));
    exhausted = (fun () -> Box.exhausted shard);
  }

let cfg = { Fbdt.default_config with Fbdt.max_nodes = 48 }

(* For each listed output: a tree learned over the sampled support on a
   budget-sliced shard (small enough that some trees run out), and an
   exhaustive table over the first (up to) 10 support inputs. *)
let fbdt_digest name outputs =
  let box = box_of name in
  let ni = Box.num_inputs box in
  let stats =
    Ps.run ~rounds:128 ~rng:(Rng.create 7) box ~constraint_:(Cube.top ni) ()
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun po ->
      let support = Ps.support stats ~output:po in
      let shard = Box.shard ~budget:6_000 ~fault_key:po box in
      let r =
        Fbdt.learn ~support cfg ~rng:(Rng.create (11 + po)) (oracle_of shard po)
      in
      Printf.bprintf b "tree %d %b %d %.6f %d\n%s#%s\n" po r.Fbdt.complete
        r.Fbdt.nodes_expanded r.Fbdt.truth_ratio (Box.queries_used shard)
        (Cover.to_pla r.Fbdt.onset) (Cover.to_pla r.Fbdt.offset);
      let small = List.filteri (fun i _ -> i < 10) support in
      let shard = Box.shard ~fault_key:po box in
      let e =
        Fbdt.learn_exhaustive ~rng:(Rng.create 0) ~support:small
          (oracle_of shard po)
      in
      Printf.bprintf b "exh %d %.6f %d\n%s#%s\n" po e.Fbdt.truth_ratio
        (Box.queries_used shard) (Cover.to_pla e.Fbdt.onset)
        (Cover.to_pla e.Fbdt.offset))
    outputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- SAT-sweeping engines ----

   Digests of the fraig pass, the netlist equivalence classes, the full
   dataflow sweep and CEC verdicts on the circuits the learner hands
   these engines for case_2 and case_12: the circuit before [aig-opt]
   and the circuit before the sweep, learned at quick scale the way the
   benchmark's layer replay learns them. *)

module N = Lr_netlist.Netlist
module Aig = Lr_aig.Aig
module Aiger = Lr_aig.Aiger
module Fraig = Lr_aig.Fraig
module Equiv = Lr_aig.Equiv
module Equivcls = Lr_dataflow.Equivcls
module Sweep = Lr_dataflow.Sweep
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let engine_inputs =
  let memo = Hashtbl.create 2 in
  fun name ->
    match Hashtbl.find_opt memo name with
    | Some cs -> cs
    | None ->
        let base =
          {
            Config.improved with
            Config.seed = 1;
            support_rounds = 512;
            max_tree_nodes = 512;
            sweep = Config.Sweep_off;
            check_level = Config.Off;
          }
        in
        let learn config =
          (Learner.learn ~config (box_of name)).Learner.circuit
        in
        let cs =
          [ learn { base with Config.optimize = false }; learn base ]
        in
        Hashtbl.replace memo name cs;
        cs

let digest_of_texts texts =
  Digest.to_hex (Digest.string (String.concat "|" texts))

let fraig_digest name =
  digest_of_texts
    (List.map
       (fun c ->
         Aiger.write (Fraig.sweep ~rng:(Rng.create 3) (Aig.of_netlist c)))
       (engine_inputs name))

let equivcls_digest name =
  digest_of_texts
    (List.map
       (fun c ->
         let e = Equivcls.compute ~rng:(Rng.create 4) c in
         let b = Buffer.create 4096 in
         Array.iter (fun r -> Printf.bprintf b "%d," r) e.Equivcls.repr;
         Printf.bprintf b "\n%d %d %d %d" e.Equivcls.proved e.Equivcls.refuted
           e.Equivcls.sat_calls e.Equivcls.rounds;
         Buffer.contents b)
       (engine_inputs name))

let sweep_digest name =
  digest_of_texts
    (List.map
       (fun c ->
         let out, st = Sweep.run ~level:Sweep.Full ~rng:(Rng.create 5) c in
         Printf.sprintf "%s\n%d %d %d %d %d %d %d %d" (Lr_netlist.Io.write out)
           st.Sweep.rounds st.Sweep.const_folded st.Sweep.merged
           st.Sweep.xor_recovered st.Sweep.odc_rewrites st.Sweep.sat_calls
           st.Sweep.gates_before st.Sweep.gates_after)
       (engine_inputs name))

let verdict_text = function
  | Equiv.Equivalent -> "eq"
  | Equiv.Counterexample cex -> "cex " ^ Bv.to_string cex

(* [c] with output [o] flipped where [inputs] are all true: a difference
   on one cube that random simulation is unlikely to hit when the cube is
   wide, and hits at once when it is narrow *)
let flipped c ~o ~inputs =
  let a = Aig.of_netlist c in
  let cube =
    List.fold_left (fun acc i -> Aig.and_lit a acc (Aig.input_lit a i))
      Aig.lit_true inputs
  in
  Aig.set_output a o (Aig.xor_lit a (Aig.output a o) cube);
  a

let cec_digest () =
  let c2 = List.nth (engine_inputs "case_2") 1 in
  let c12 = List.nth (engine_inputs "case_12") 1 in
  let ni12 = N.num_inputs c12 in
  let pairs =
    [
      c2, flipped c2 ~o:0 ~inputs:(List.init 20 Fun.id);
      c2, flipped c2 ~o:(N.num_outputs c2 - 1) ~inputs:[ 0 ];
      c12, flipped c12 ~o:(N.num_outputs c12 / 2)
        ~inputs:(List.init 20 (fun k -> ni12 - 1 - k));
    ]
  in
  String.concat "\n"
    (List.map
       (fun (c, a') ->
         verdict_text (Equiv.check c (Aig.to_netlist a'))
         ^ " / "
         ^ verdict_text (Equiv.check_aig (Aig.of_netlist c) a'))
       pairs)

let pin what expected actual () = Alcotest.(check string) what expected actual

let tests =
  [
    Alcotest.test_case "sampling stats case_7" `Quick (fun () ->
        pin "case_7 sampling" "7d1f9ac5b4c43f795a13747e208036b7"
          (sampling_digest "case_7") ());
    Alcotest.test_case "sampling stats case_9" `Quick (fun () ->
        pin "case_9 sampling" "ff759d047c1652df7cbad588d5dd5b47"
          (sampling_digest "case_9") ());
    Alcotest.test_case "fbdt covers case_7" `Quick (fun () ->
        pin "case_7 fbdt" "b2fe19554d873685d303383c00355f0f"
          (fbdt_digest "case_7" [ 0; 3; 6 ]) ());
    Alcotest.test_case "fbdt covers case_9" `Quick (fun () ->
        pin "case_9 fbdt" "6d626e7bf262f9e0787007cf82b5ab1e"
          (fbdt_digest "case_9" [ 0; 5; 15 ]) ());
    Alcotest.test_case "fraig sweep case_2" `Quick (fun () ->
        pin "case_2 fraig" "d2455c6aed2b7645786b93ba23fc4911"
          (fraig_digest "case_2") ());
    Alcotest.test_case "fraig sweep case_12" `Quick (fun () ->
        pin "case_12 fraig" "7f47752a663bc6a823543a0057ba56df"
          (fraig_digest "case_12") ());
    Alcotest.test_case "equivalence classes case_2" `Quick (fun () ->
        pin "case_2 equivcls" "602e831f313f9ca1b1fc09a2d313c41e"
          (equivcls_digest "case_2") ());
    Alcotest.test_case "equivalence classes case_12" `Quick (fun () ->
        pin "case_12 equivcls" "86b6aea5200b8d125d7a05698abe28a9"
          (equivcls_digest "case_12") ());
    Alcotest.test_case "full sweep case_2" `Quick (fun () ->
        pin "case_2 sweep" "14795d7d102c8bb0e79c7e024eaeb128"
          (sweep_digest "case_2") ());
    Alcotest.test_case "full sweep case_12" `Quick (fun () ->
        pin "case_12 sweep" "7ccf2d344e2469593685291fa1339d69"
          (sweep_digest "case_12") ());
    Alcotest.test_case "cec verdicts" `Quick (fun () ->
        pin "check / check_aig"
          "cex 00000000000000000000100000000000011111111111111111111 / cex \
           00000000000000000000100000000000011111111111111111111\n\
           cex 11111110000101011011100011001110110111111010100100111 / cex \
           11111110000101011011100011001110110111111010100100111\n\
           cex 1111111111111111111100000000000000000000 / cex \
           1111111111111111111100000000000000000000"
          (cec_digest ()) ());
  ]
