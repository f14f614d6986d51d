(* Property-based testing over random circuits, covers and vectors.

   A small hand-rolled qcheck-lite: generators are sized (instances grow
   as a run progresses, so early failures are small to begin with) and
   every arbitrary carries a shrinker — on a falsified property the
   harness greedily walks shrink candidates until none fails, then
   reports the local minimum. No dependency beyond Alcotest for
   reporting.

   The properties pin down the three data paths the parallel learner
   leans on hardest: AIG optimization preserves function, the exchange
   formats round-trip, and the three evaluators (cover, BDD, netlist)
   agree on random assignments. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module N = Lr_netlist.Netlist
module B = Lr_netlist.Builder
module Blif = Lr_netlist.Blif
module Io = Lr_netlist.Io
module Aig = Lr_aig.Aig
module Opt = Lr_aig.Opt
module Aiger = Lr_aig.Aiger
module Bdd = Lr_bdd.Bdd
module Box = Lr_blackbox.Blackbox
module F = Lr_faults.Faults
module Lint = Lr_check.Lint
module Finding = Lr_check.Finding
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Sweep = Lr_dataflow.Sweep
module Equiv = Lr_aig.Equiv
module Fp = Lr_serve.Fingerprint
module Scache = Lr_serve.Cache
module Soa = Lr_kernel.Soa

(* ---------------- the harness ---------------- *)

type 'a arb = {
  gen : Rng.t -> int -> 'a;  (** size-driven generator *)
  shrink : 'a -> 'a list;  (** smaller candidates, most aggressive first *)
  print : 'a -> string;
}

(* Greedy shrink: take the first failing candidate, repeat from there.
   Terminates because every shrinker strictly decreases its measure. *)
let rec minimize shrink fails x =
  match List.find_opt fails (shrink x) with
  | Some y -> minimize shrink fails y
  | None -> x

let check_prop ?(count = 60) name arb prop =
  let rng = Rng.create (Hashtbl.hash name) in
  for i = 1 to count do
    (* sizes ramp from 1 to ~24 over the run *)
    let size = 1 + (i * 24 / count) in
    let x = arb.gen rng size in
    let fails x = not (try prop x with _ -> false) in
    if fails x then begin
      let m = minimize arb.shrink fails x in
      Alcotest.failf "%s falsified (attempt %d, size %d), minimized to:\n%s"
        name i size (arb.print m)
    end
  done

(* drop element [i] of a list *)
let drop_nth l i = List.filteri (fun j _ -> j <> i) l

let shrink_list shrink_elt l =
  let n = List.length l in
  (* halving first (fast progress), then element drops, then in-place
     element shrinks *)
  (if n > 1 then [ List.filteri (fun i _ -> i < n / 2) l ] else [])
  @ List.init n (fun i -> drop_nth l i)
  @ List.concat
      (List.mapi
         (fun i x ->
           List.map (fun y -> List.mapi (fun j z -> if i = j then y else z) l)
             (shrink_elt x))
         l)

(* ---------------- vectors ---------------- *)

let arb_bv n =
  {
    gen = (fun rng _ -> Bv.random rng n);
    shrink =
      (fun v ->
        (* clear one set bit at a time: minimum is all-zero *)
        List.filter_map
          (fun i ->
            if Bv.get v i then begin
              let w = Bv.copy v in
              Bv.set w i false;
              Some w
            end
            else None)
          (List.init n Fun.id));
    print = Bv.to_string;
  }

(* ---------------- covers ---------------- *)

let gen_cube rng n =
  let lits = ref [] in
  for v = 0 to n - 1 do
    (* ~2 literals per cube on average keeps cubes satisfiable and wide *)
    if Rng.int rng n < 2 then lits := (v, Rng.bool rng) :: !lits
  done;
  Cube.of_literals n !lits

(* remove one literal at a time: minimum is the universal cube *)
let shrink_cube c =
  List.map (fun (v, _) -> Cube.remove c v) (Cube.literals c)

let arb_cover n =
  {
    gen =
      (fun rng size ->
        let cubes = List.init (1 + Rng.int rng (1 + size)) (fun _ -> gen_cube rng n) in
        Cover.of_cubes n cubes);
    shrink =
      (fun cover ->
        List.map (Cover.of_cubes n) (shrink_list shrink_cube (Cover.cubes cover)));
    print = Cover.to_pla;
  }

(* ---------------- AIGs, from a recipe ---------------- *)

(* An AIG is generated from a pure-data recipe — a list of (kind, a, b)
   rows, each adding one gate over the literals available so far — so
   shrinking is just list surgery on the recipe and rebuilding. *)
type recipe = { ni : int; no : int; ops : (int * int * int) list }

let build_aig { ni; no; ops } =
  let aig = Aig.create ~num_inputs:ni ~num_outputs:no in
  let lits = ref (Array.to_list (Array.init ni (Aig.input_lit aig))) in
  let nlits = ref ni in
  let pick k =
    let l = List.nth !lits (k mod !nlits) in
    if k land 1 = 0 then l else Aig.not_lit l
  in
  List.iter
    (fun (kind, a, b) ->
      let f =
        match kind mod 3 with
        | 0 -> Aig.and_lit
        | 1 -> Aig.or_lit
        | _ -> Aig.xor_lit
      in
      let l = f aig (pick a) (pick b) in
      lits := l :: !lits;
      incr nlits)
    ops;
  for o = 0 to no - 1 do
    Aig.set_output aig o (pick (o * 7 + 3))
  done;
  aig

let arb_recipe =
  {
    gen =
      (fun rng size ->
        let ni = 2 + Rng.int rng 6 and no = 1 + Rng.int rng 4 in
        let ops =
          List.init (Rng.int rng (2 * size + 2)) (fun _ ->
              (Rng.int rng 3, Rng.int rng 1000, Rng.int rng 1000))
        in
        { ni; no; ops })
    (* shrink only the gate list; arities stay, keeping outputs valid *);
    shrink =
      (fun r -> List.map (fun ops -> { r with ops }) (shrink_list (fun _ -> []) r.ops));
    print =
      (fun r ->
        Printf.sprintf "recipe ni=%d no=%d ops=[%s]" r.ni r.no
          (String.concat "; "
             (List.map (fun (k, a, b) -> Printf.sprintf "%d,%d,%d" k a b) r.ops)));
  }

(* the same recipe as a netlist, for the BLIF/native round-trips *)
let build_netlist r =
  let aig = build_aig r in
  Aig.to_netlist
    ~input_names:(Array.init r.ni (Printf.sprintf "i%d"))
    ~output_names:(Array.init r.no (Printf.sprintf "o%d"))
    aig

(* random 64-assignment word patterns for AIG simulation *)
let words rng ni = Array.init ni (fun _ -> Rng.bits64 rng)

(* ---------------- properties ---------------- *)

let prop_compress_preserves () =
  check_prop "Opt.compress preserves function" arb_recipe (fun r ->
      let aig = build_aig r in
      let rng = Rng.create 7 in
      let optimized = Opt.compress ~max_rounds:2 ~fraig_words:4 ~rng aig in
      Aig.num_ands optimized <= Aig.num_ands aig
      && List.for_all
           (fun _ ->
             let w = words rng r.ni in
             Aig.simulate aig w = Aig.simulate optimized w)
           [ (); (); () ])

let prop_sweep_preserves () =
  check_prop "Sweep.run preserves function and never grows" arb_recipe
    (fun r ->
      let n = build_netlist r in
      let swept, st = Sweep.run ~rng:(Rng.create 13) n in
      N.size swept <= N.size n
      && Sweep.removed st = N.size n - N.size swept
      &&
      let rng = Rng.create 29 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng r.ni in
          Bv.equal (N.eval n a) (N.eval swept a))
        (List.init 16 Fun.id))

let prop_blif_roundtrip () =
  check_prop "BLIF write/read round-trip" arb_recipe (fun r ->
      let n = build_netlist r in
      let n' = Blif.read (Blif.write n) in
      N.input_names n = N.input_names n'
      && N.output_names n = N.output_names n'
      &&
      let rng = Rng.create 11 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng r.ni in
          Bv.equal (N.eval n a) (N.eval n' a))
        (List.init 16 Fun.id))

let prop_native_roundtrip () =
  check_prop "native format write/read round-trip" arb_recipe (fun r ->
      let n = build_netlist r in
      let n' = Io.read (Io.write n) in
      N.input_names n = N.input_names n'
      && N.output_names n = N.output_names n'
      && N.size n = N.size n'
      &&
      let rng = Rng.create 13 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng r.ni in
          Bv.equal (N.eval n a) (N.eval n' a))
        (List.init 16 Fun.id))

let prop_aiger_roundtrip () =
  check_prop "AIGER write/read round-trip (structural)" arb_recipe (fun r ->
      let aig = Aig.compact (build_aig r) in
      let aig' = Aiger.read (Aiger.write aig) in
      Aig.num_inputs aig = Aig.num_inputs aig'
      && Aig.num_outputs aig = Aig.num_outputs aig'
      && Aig.num_ands aig = Aig.num_ands aig'
      &&
      let rng = Rng.create 17 in
      List.for_all
        (fun _ ->
          let w = words rng r.ni in
          Aig.simulate aig w = Aig.simulate aig' w)
        (List.init 4 Fun.id))

(* one random-cover property over three evaluators: the cover itself,
   its BDD, and the SOP netlist the learner would synthesise from it *)
let prop_evaluators_agree () =
  let n = 8 in
  check_prop "cover/BDD/netlist evaluation agreement" (arb_cover n)
    (fun cover ->
      let man = Bdd.man ~nvars:n in
      let node = Bdd.of_cover man cover in
      let circuit =
        N.create
          ~input_names:(Array.init n (Printf.sprintf "x%d"))
          ~output_names:[| "f" |]
      in
      let vars = Array.init n (N.input circuit) in
      N.set_output circuit 0 (B.sop circuit vars cover);
      let rng = Rng.create 23 in
      List.for_all
        (fun _ ->
          let a = Bv.random rng n in
          let want = Cover.eval cover a in
          Bdd.eval man node a = want
          && Bv.get (N.eval circuit a) 0 = want)
        (List.init 32 Fun.id))

(* ---------------- SoA kernel differentials ---------------- *)

(* the compiled kernel against the tree-walking reference, over random
   recipes x random pattern blocks: both simulation entry points of
   [Lr_kernel.Soa] must be bit-identical to the evaluators the pipeline
   runs on *)
let prop_soa_netlist_identical () =
  check_prop "Soa.of_netlist == Netlist evaluators" arb_recipe (fun r ->
      let c = build_netlist r in
      let s = Soa.of_netlist c in
      let rng = Rng.create 41 in
      List.for_all
        (fun _ ->
          let w = words rng r.ni in
          N.eval_words c w = Soa.eval_words s w)
        (List.init 4 Fun.id)
      &&
      (* eval_many over a pattern count that is not a multiple of 64, so
         the wide-block path exercises a ragged final block *)
      let np = 1 + Rng.int rng 130 in
      let patterns = Array.init np (fun _ -> Bv.random rng r.ni) in
      let reference = N.eval_many c patterns in
      let kernel = Soa.eval_many s patterns in
      Array.length reference = Array.length kernel
      && Array.for_all2 Bv.equal reference kernel)

(* the shapes random recipes never produce: no inputs, no gates *)
let test_kernel_degenerate () =
  let check_words = Alcotest.(check (array int64)) in
  (* zero-input netlist: constant outputs only *)
  let c0 = N.create ~input_names:[||] ~output_names:[| "t"; "f" |] in
  N.set_output c0 0 (N.const_true c0);
  (* output 1 keeps its initial constant-false *)
  let s0 = Soa.of_netlist c0 in
  check_words "0-input eval_words" (N.eval_words c0 [||])
    (Soa.eval_words s0 [||]);
  (* zero-gate netlist: an input wired straight to the output *)
  let c1 = N.create ~input_names:[| "a"; "b" |] ~output_names:[| "y" |] in
  N.set_output c1 0 (N.input c1 1);
  let s1 = Soa.of_netlist c1 in
  let rng = Rng.create 53 in
  let w = words rng 2 in
  check_words "0-gate eval_words" (N.eval_words c1 w) (Soa.eval_words s1 w)

(* ---------------- fault injection ---------------- *)

(* a recipe paired with a transient-only fault schedule; shrinking works
   on the recipe (the schedule is already minimal in structure) *)
let arb_faulted_recipe =
  {
    gen =
      (fun rng size ->
        let spec =
          {
            F.none with
            F.seed = 1 + Rng.int rng 10_000;
            fail_p = 0.05 +. (float_of_int (Rng.int rng 25) /. 100.0);
            fail_burst = 1 + Rng.int rng 3;
            latency_p = 0.1;
            latency_s = 0.001;
          }
        in
        (arb_recipe.gen rng size, spec));
    shrink =
      (fun (r, spec) ->
        List.map (fun r -> (r, spec)) (arb_recipe.shrink r));
    print =
      (fun (r, spec) ->
        Printf.sprintf "%s under %s" (arb_recipe.print r) (F.to_string spec));
  }

let tiny_learn ?faults ?(retry = F.no_retry) r =
  let box = Box.of_netlist ~budget:30_000 (build_netlist r) in
  Learner.learn
    ~config:
      {
        Config.default with
        Config.support_rounds = 64;
        node_rounds = 16;
        max_tree_nodes = 128;
        optimize_rounds = 1;
        fraig_words = 4;
        template_samples = 16;
        retry;
        faults;
      }
    box

(* transient faults outlasted by retries change nothing: not the
   netlist, not the query count — the learner cannot tell it was
   attacked (retries >= burst+1 attempts guarantees every burst is
   outlasted) *)
let prop_transient_faults_transparent () =
  check_prop ~count:8 "transient faults + retries are transparent"
    arb_faulted_recipe (fun (r, spec) ->
      let clean = tiny_learn r in
      let faulted = tiny_learn ~faults:spec ~retry:(F.retry 8) r in
      Io.write clean.Learner.circuit = Io.write faulted.Learner.circuit
      && clean.Learner.queries = faulted.Learner.queries
      && faulted.Learner.degraded = 0)

(* a hard fault schedule degrades every output, yet the emitted netlist
   is still well-formed: the lint finds no error-severity problems *)
let prop_degraded_netlist_lints () =
  check_prop ~count:8 "degraded runs emit lint-clean netlists"
    arb_faulted_recipe (fun (r, spec) ->
      let hard = { spec with F.fail_p = 1.0; fail_burst = 0 } in
      let report = tiny_learn ~faults:hard r in
      report.Learner.degraded = List.length report.Learner.outputs
      && Finding.errors (Lint.netlist report.Learner.circuit) = [])

(* ---------------- the serving plane ---------------- *)

let equivalent a b =
  match Equiv.check a b with
  | Equiv.Equivalent -> true
  | Equiv.Counterexample _ -> false

(* Insert a random circuit into the cache under its own behavioural key
   and look it back up: the verified hit must decode to a CEC-equivalent
   circuit (bit-identical, in fact — but equivalence is the safety
   property a collision could have broken). *)
let prop_cache_roundtrip () =
  check_prop ~count:20 "cache round-trip is CEC-equivalent" arb_recipe
    (fun r ->
      let n = build_netlist r in
      let box = Box.of_netlist n in
      let cache = Scache.create () in
      let key =
        Scache.key
          ~fingerprint:(Fp.probe box)
          ~names_sig:(Fp.names_signature box)
          ~config_sig:"prop"
      in
      Scache.insert cache ~key ~circuit:n ~report:Lr_instr.Json.Null;
      match Scache.lookup cache ~key ~verify:(fun c -> equivalent c n) with
      | None -> false
      | Some e ->
          Io.write n = e.Scache.circuit_text
          && equivalent (Io.read e.Scache.circuit_text) n)

(* Functionally equal, structurally different implementations must
   fingerprint identically: the content address hashes behaviour, not
   shape. Sweep and compress both rewrite the structure while provably
   preserving the function (properties above). *)
let prop_fingerprint_behavioural () =
  check_prop ~count:20 "equal functions fingerprint identically" arb_recipe
    (fun r ->
      let n = build_netlist r in
      let swept, _ = Sweep.run ~rng:(Rng.create 13) n in
      let compressed =
        let rng = Rng.create 7 in
        Aig.to_netlist
          ~input_names:(N.input_names n)
          ~output_names:(N.output_names n)
          (Opt.compress ~max_rounds:2 ~fraig_words:4 ~rng (build_aig r))
      in
      let f = Fp.probe (Box.of_netlist n) in
      Fp.equal f (Fp.probe (Box.of_netlist swept))
      && Fp.equal f (Fp.probe (Box.of_netlist compressed)))

(* the harness must actually shrink: a seeded failing property ends at a
   local minimum, here the empty gate list *)
let test_shrinking_works () =
  let minimal = ref None in
  (try
     check_prop ~count:5 "always-false canary" arb_recipe (fun r ->
         minimal := Some r;
         false)
   with _ -> ());
  match !minimal with
  | Some r -> Alcotest.(check int) "shrunk to no gates" 0 (List.length r.ops)
  | None -> Alcotest.fail "property was never exercised"

let tests =
  [
    Alcotest.test_case "Opt.compress preserves function" `Quick
      prop_compress_preserves;
    Alcotest.test_case "Sweep.run preserves function" `Quick
      prop_sweep_preserves;
    Alcotest.test_case "BLIF round-trip" `Quick prop_blif_roundtrip;
    Alcotest.test_case "native round-trip" `Quick prop_native_roundtrip;
    Alcotest.test_case "AIGER round-trip" `Quick prop_aiger_roundtrip;
    Alcotest.test_case "evaluator agreement" `Quick prop_evaluators_agree;
    Alcotest.test_case "SoA kernel == netlist evaluators" `Quick
      prop_soa_netlist_identical;
    Alcotest.test_case "kernel degenerate shapes" `Quick
      test_kernel_degenerate;
    Alcotest.test_case "transient fault transparency" `Quick
      prop_transient_faults_transparent;
    Alcotest.test_case "degraded netlists lint clean" `Quick
      prop_degraded_netlist_lints;
    Alcotest.test_case "circuit cache round-trip" `Quick prop_cache_roundtrip;
    Alcotest.test_case "fingerprints hash behaviour, not structure" `Quick
      prop_fingerprint_behavioural;
    Alcotest.test_case "shrinking reaches a minimum" `Quick
      test_shrinking_works;
  ]
