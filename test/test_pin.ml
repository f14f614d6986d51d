(* Regression pins for the query path: digests of support-identification
   statistics and of learned FBDT covers on two real cases at fixed
   seeds. The expected digests were recorded from the Bv-per-pattern
   toggle implementation that the word-native query path replaced; any
   change in RNG draws, query order or accounting shows up here. *)

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
  ]
