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
module Fraig = Lr_aig.Fraig
module Equivcls = Lr_dataflow.Equivcls
module Fp = Lr_serve.Fingerprint
module Scache = Lr_serve.Cache
module Soa = Lr_kernel.Soa
module Instr = Lr_instr.Instr

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
   [Lr_kernel.Soa], which answers every black-box query, must be
   bit-identical to the reference [Netlist] evaluators *)
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

(* ---------------- the word-major query path ---------------- *)

(* [query_words] (or, past 64 lanes, [query_blocks]) on a word block
   transposed from [pats], answered back as vectors *)
let query_as_words box pats =
  let n = Array.length pats and ni = Box.num_inputs box in
  let lanes b = min 64 (n - (64 * b)) in
  let block b = Bv.columns ni pats ~pos:(64 * b) ~lanes:(lanes b) in
  let outs =
    if n <= 64 then [| Box.query_words ~lanes:n box (block 0) |]
    else Box.query_blocks box ~n (Array.init ((n + 63) / 64) block)
  in
  Array.concat
    (Array.to_list
       (Array.mapi (fun b w -> Bv.of_columns w ~lanes:(lanes b)) outs))

let same_accounting a b =
  Box.queries_used a = Box.queries_used b
  && Box.queries_by_span a = Box.queries_by_span b
  && Lr_report.Histogram.count (Box.query_latency a)
     = Lr_report.Histogram.count (Box.query_latency b)
  && Box.retries_used a = Box.retries_used b
  && Box.faults_seen a = Box.faults_seen b

(* batch sizes around the 64-lane word: ragged, full, and multi-block *)
let batch_sizes rng k =
  List.init k (fun _ ->
      match Rng.int rng 4 with
      | 0 -> 64
      | 1 -> 65 + Rng.int rng 70
      | _ -> 1 + Rng.int rng 64)

(* Same batches through both entry points of two fresh boxes: identical
   answers lane by lane (and equal to the reference evaluator), and
   identical counts, span attribution and latency weight. *)
let prop_query_words_differential () =
  check_prop ~count:40 "query_words == query_many" arb_recipe (fun r ->
      let c = build_netlist r in
      let rng = Rng.create 61 in
      let by_vec = Box.of_netlist c and by_word = Box.of_netlist c in
      List.for_all
        (fun n ->
          let pats = Array.init n (fun _ -> Bv.random rng r.ni) in
          let span = Printf.sprintf "batch%d" (n mod 3) in
          let want =
            Instr.span ~name:span (fun () -> Box.query_many by_vec pats)
          in
          let got =
            Instr.span ~name:span (fun () -> query_as_words by_word pats)
          in
          Array.for_all2 Bv.equal want (N.eval_many c pats)
          && Array.for_all2 Bv.equal want got)
        (batch_sizes rng 6)
      && same_accounting by_vec by_word)

(* A strict shard refuses the same batch, at the same count, whichever
   entry point sends it. *)
let prop_strict_exhaustion_point () =
  check_prop ~count:40 "strict shards refuse at the same query" arb_recipe
    (fun r ->
      let c = build_netlist r in
      let rng = Rng.create 67 in
      let budget = Rng.int rng 300 in
      let sizes = batch_sizes rng 8 in
      let run send =
        let s = Box.shard ~budget ~strict:true (Box.of_netlist c) in
        let rec go i = function
          | [] -> (-1, Box.queries_used s)
          | n :: rest -> (
              let pats = Array.make n (Bv.create r.ni) in
              match send s pats with
              | _ -> go (i + 1) rest
              | exception Box.Exhausted { used; _ } -> (i, used))
        in
        go 0 sizes
      in
      run Box.query_many = run query_as_words)

(* a recipe under a schedule that mixes every fault class: transient
   failures (sometimes outlasting the retry policy), latency spikes,
   a flipped or stuck victim bit inside an onset window, premature
   exhaustion *)
let arb_fault_mix =
  {
    gen =
      (fun rng size ->
        let r = arb_recipe.gen rng size in
        let spec =
          {
            F.seed = 1 + Rng.int rng 10_000;
            fail_p = float_of_int (Rng.int rng 40) /. 100.0;
            fail_burst = 1 + Rng.int rng 3;
            latency_p = 0.2;
            latency_s = 0.0;
            corruption =
              Some
                (match Rng.int rng 3 with
                | 0 -> F.Flip
                | k -> F.Stuck_at (k = 1));
            victim = Rng.int rng (r.no + 1);
            onset = Rng.int rng 150;
            duration = (if Rng.bool rng then max_int else 1 + Rng.int rng 200);
            exhaust_after = Some (50 + Rng.int rng 400);
          }
        in
        (r, spec));
    shrink =
      (fun (r, spec) -> List.map (fun r -> (r, spec)) (arb_recipe.shrink r));
    print =
      (fun (r, spec) ->
        Printf.sprintf "%s under %s" (arb_recipe.print r) (F.to_string spec));
  }

(* The schedule's corruption replayed query by query on the reference
   evaluator's answers: query [q] of the key's stream (counting only
   batches that were served) has its victim bit flipped or stuck when
   [q] lies in [onset, onset + duration). Returns the expected answers
   per batch ([None] where the box failed it) and the corruption count. *)
let reference_corruption c (spec : F.spec) batches served_flags =
  let served = ref 0 and corrupt = ref 0 in
  let answers =
    List.map2
      (fun pats ok ->
        if not ok then None
        else
          Some
            (Array.map
               (fun o ->
                 let q = !served in
                 incr served;
                 let in_window =
                   q >= spec.F.onset
                   && (spec.F.duration = max_int
                      || q - spec.F.onset < spec.F.duration)
                 in
                 let v = spec.F.victim in
                 if in_window && v >= 0 && v < Bv.length o then begin
                   let o' = Bv.copy o in
                   (match spec.F.corruption with
                   | Some F.Flip -> Bv.flip o' v
                   | Some (F.Stuck_at b) -> Bv.set o' v b
                   | None -> ());
                   if not (Bv.equal o o') then incr corrupt;
                   Bv.to_string o'
                 end
                 else Bv.to_string o)
               (N.eval_many c pats)))
      batches served_flags
  in
  (answers, !corrupt)

(* Under that schedule both entry points see the same outputs, the same
   failures, the same exhaustion, and count the same faults and retries;
   and the answers and the corruption count are those of the schedule
   replayed query by query on the reference evaluator. *)
let prop_faulted_query_words () =
  check_prop ~count:40 "faulted query_words == query_many" arb_fault_mix
    (fun (r, spec) ->
      let c = build_netlist r in
      let rng = Rng.create 71 in
      let batches =
        List.map
          (fun n -> Array.init n (fun _ -> Bv.random rng r.ni))
          (batch_sizes rng 8)
      in
      let run send =
        let box = Box.of_netlist c in
        Box.set_faults ~key:3 box (Some spec);
        Box.set_retry box (F.retry ~backoff_s:0.0 3);
        let answers =
          List.map
            (fun pats ->
              let out =
                match send box pats with
                | outs -> Some (Array.map Bv.to_string outs)
                | exception F.Query_failed _ -> None
              in
              (out, Box.exhausted box))
            batches
        in
        (box, answers)
      in
      let vec, a = run Box.query_many and word, b = run query_as_words in
      let want, corrupt =
        reference_corruption c spec batches
          (List.map (fun (out, _) -> out <> None) a)
      in
      a = b
      && same_accounting vec word
      && List.map fst a = want
      && List.assoc "corrupt" (Box.faults_seen vec) = corrupt)

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

(* ---------------- SAT sweeping against exhaustive tables ---------------- *)

(* A netlist recipe over every gate kind the netlist has (NOT and the six
   2-input primitives, with the constants in the operand pool so the
   builder's folds appear too) plus whole-input minterms, on at most 7
   inputs, small enough to enumerate exhaustively. [Aig.to_netlist] alone
   emits only AND/NOT. The engines below get one 64-pattern seed word, so
   signatures start incomplete and SAT refutations and counterexample
   refinement run too, not only proofs. *)
let build_gates { ni; no; ops } =
  let c =
    N.create
      ~input_names:(Array.init ni (Printf.sprintf "i%d"))
      ~output_names:(Array.init no (Printf.sprintf "o%d"))
  in
  let pool =
    ref ([ N.const_false c; N.const_true c ] @ List.init ni (N.input c))
  in
  let npool = ref (ni + 2) in
  let pick k = List.nth !pool (k mod !npool) in
  List.iter
    (fun (kind, a, b) ->
      let g =
        match kind mod 8 with
        | 7 ->
            (* one minterm: a function random patterns rarely see, so
               candidate classes need SAT refutation and refinement *)
            List.fold_left
              (fun acc i ->
                let x = N.input c i in
                N.and_ c acc (if (a lsr i) land 1 = 1 then x else N.not_ c x))
              (N.const_true c) (List.init ni Fun.id)
        | 0 -> N.not_ c (pick a)
        | 1 -> N.and_ c (pick a) (pick b)
        | 2 -> N.or_ c (pick a) (pick b)
        | 3 -> N.xor_ c (pick a) (pick b)
        | 4 -> N.nand_ c (pick a) (pick b)
        | 5 -> N.nor_ c (pick a) (pick b)
        | _ -> N.xnor_ c (pick a) (pick b)
      in
      pool := g :: !pool;
      incr npool)
    ops;
  for o = 0 to no - 1 do
    N.set_output c o (pick ((o * 7) + 3))
  done;
  c

let arb_gate_recipe =
  {
    arb_recipe with
    gen =
      (fun rng size ->
        let ni = 1 + Rng.int rng 7 and no = 1 + Rng.int rng 4 in
        let ops =
          List.init (Rng.int rng (2 * size + 2)) (fun _ ->
              (Rng.int rng 8, Rng.int rng 1000, Rng.int rng 1000))
        in
        { ni; no; ops });
  }

(* every input assignment, 64 to a word: pattern [64 * b + j] sets input
   [i] to bit [i] of the pattern; [mask] keeps the lanes that exist *)
let exhaustive_blocks ni =
  let blocks = max 1 ((1 lsl ni) / 64) in
  let mask =
    if ni >= 6 then -1L else Int64.pred (Int64.shift_left 1L (1 lsl ni))
  in
  ( Array.init blocks (fun b ->
        Array.init ni (fun i ->
            let w = ref 0L in
            for j = 0 to 63 do
              if ((64 * b) + j) lsr i land 1 = 1 then
                w := Int64.logor !w (Int64.shift_left 1L j)
            done;
            !w)),
    mask )

(* the exhaustive table of every output, from [Netlist.eval_words] *)
let output_tables c =
  let blocks, mask = exhaustive_blocks (N.num_inputs c) in
  let outs = Array.map (N.eval_words c) blocks in
  Array.init (N.num_outputs c) (fun o ->
      Array.map (fun w -> Int64.logand w.(o) mask) outs)

(* every node's table: replay the netlist through the builder with one
   output per node, so the oracle is [eval_words] and not the node
   simulator the engines themselves run on *)
let node_tables c =
  let n = N.num_nodes c in
  let p =
    N.create ~input_names:(N.input_names c)
      ~output_names:(Array.init n (Printf.sprintf "n%d"))
  in
  let map = Array.make n 0 in
  for k = 0 to n - 1 do
    let m a = map.(a) in
    map.(k) <-
      (match N.gate c k with
      | N.Const b -> if b then N.const_true p else N.const_false p
      | N.Input i -> N.input p i
      | N.Not a -> N.not_ p (m a)
      | N.And2 (a, b) -> N.and_ p (m a) (m b)
      | N.Or2 (a, b) -> N.or_ p (m a) (m b)
      | N.Xor2 (a, b) -> N.xor_ p (m a) (m b)
      | N.Nand2 (a, b) -> N.nand_ p (m a) (m b)
      | N.Nor2 (a, b) -> N.nor_ p (m a) (m b)
      | N.Xnor2 (a, b) -> N.xnor_ p (m a) (m b));
    N.set_output p k map.(k)
  done;
  output_tables p

(* every AIG node's table, through an AIG whose outputs are its nodes *)
let aig_node_tables aig =
  let n = Aig.num_nodes aig and ni = Aig.num_inputs aig in
  let p = Aig.create ~num_inputs:ni ~num_outputs:n in
  let map = Array.make n Aig.lit_false in
  for i = 0 to ni - 1 do
    map.(1 + i) <- Aig.input_lit p i
  done;
  let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
  for k = ni + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig k in
    map.(k) <- Aig.and_lit p (map_lit l0) (map_lit l1)
  done;
  Array.iteri (Aig.set_output p) map;
  output_tables (Aig.to_netlist p)

let complement_table mask t =
  Array.mapi (fun b w -> Int64.logxor w (if b = 0 then mask else -1L)) t

(* are the classes, read through [find] as [(root, phase)] per node,
   exactly the tables' equalities up to phase? *)
let classes_exact ~find ~mask tables =
  let n = Array.length tables in
  let ok = ref true in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let ra, pa = find a and rb, pb = find b in
      let equal = tables.(a) = tables.(b) in
      let compl = tables.(a) = complement_table mask tables.(b) in
      let shared = ra = rb in
      if shared && pa = pb && not equal then ok := false;
      if shared && pa <> pb && not compl then ok := false;
      if (equal || compl) && not shared then ok := false
    done
  done;
  !ok

let gate_kind = function
  | N.Const _ -> 0
  | N.Input _ -> 1
  | N.Not _ -> 2
  | N.And2 _ -> 3
  | N.Or2 _ -> 4
  | N.Xor2 _ -> 5
  | N.Nand2 _ -> 6
  | N.Nor2 _ -> 7
  | N.Xnor2 _ -> 8

(* [r] with one gate's kind changed, so the pair is sometimes equivalent
   and sometimes not *)
let mutated r =
  match r.ops with
  | [] -> r
  | ops ->
      let k = List.length ops / 2 in
      {
        r with
        ops =
          List.mapi
            (fun i (kind, a, b) ->
              if i = k then ((kind + 1) mod 8, a, b) else (kind, a, b))
            ops;
      }

let verdict_ok c1 c2 verdict =
  match verdict with
  | Equiv.Equivalent -> output_tables c1 = output_tables c2
  | Equiv.Counterexample cex ->
      output_tables c1 <> output_tables c2
      && not (Bv.equal (N.eval c1 cex) (N.eval c2 cex))

let prop_sat_sweeping_exhaustive () =
  let kinds_seen = Array.make 9 false in
  check_prop ~count:1000 "SAT sweeping == exhaustive tables" arb_gate_recipe
    (fun r ->
      let c = build_gates r in
      for k = 0 to N.num_nodes c - 1 do
        kinds_seen.(gate_kind (N.gate c k)) <- true
      done;
      let _, mask = exhaustive_blocks r.ni in
      (* netlist classes: complete and sound, no budget hit *)
      let e = Equivcls.compute ~words:1 ~rng:(Rng.create 61) c in
      let netlist_ok =
        e.Equivcls.rounds < 32
        && e.Equivcls.sat_calls < 2000
        && classes_exact
             ~find:(fun k -> (Equivcls.repr_node e k, Equivcls.repr_phase e k))
             ~mask (node_tables c)
      in
      (* the shared loop on the AIG, with fraig's budgets: the same
         classes [Fraig.sweep] merges from the same rng state *)
      let aig = Aig.of_netlist c in
      let solver = Lr_sat.Sat.create () in
      Fraig.cnf_of_aig aig solver;
      let o =
        Fraig.classes ~label:"fraig" ~words:1 ~max_rounds:64
          ~max_sat_checks:5000 ~rng:(Rng.create 67) ~solver
          ~input_var:(fun i -> i + 2)
          ~num_nodes:(Aig.num_nodes aig) ~num_inputs:r.ni
          ~sim:(Aig.simulate_nodes aig)
          ~on_round:(fun ~classes:_ -> ())
      in
      let aig_ok =
        o.Fraig.rounds < 64
        && o.Fraig.sat_calls < 5000
        && classes_exact ~find:(Fraig.Uf.find o.Fraig.uf) ~mask
             (aig_node_tables aig)
      in
      (* fraig keeps every output and leaves no AND node equal or
         complementary to another node *)
      let swept = Fraig.sweep ~words:1 ~rng:(Rng.create 67) aig in
      let fraig_ok =
        output_tables (Aig.to_netlist swept) = output_tables c
        &&
        let t = aig_node_tables swept in
        let ok = ref true in
        for a = r.ni + 1 to Aig.num_nodes swept - 1 do
          for b = 0 to Aig.num_nodes swept - 1 do
            if a <> b && (t.(a) = t.(b) || t.(a) = complement_table mask t.(b))
            then ok := false
          done
        done;
        !ok
      in
      (* CEC: Equivalent iff the output tables match, and every
         counterexample separates the circuits *)
      let c' = build_gates (mutated r) in
      let cec_ok =
        verdict_ok c c' (Equiv.check c c')
        && verdict_ok c c' (Equiv.check_aig aig (Aig.of_netlist c'))
        && verdict_ok c (Aig.to_netlist swept)
             (Equiv.check c (Aig.to_netlist swept))
      in
      netlist_ok && aig_ok && fraig_ok && cec_ok);
  Array.iteri
    (fun k seen ->
      if not seen then Alcotest.failf "gate kind %d never generated" k)
    kinds_seen

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
    Alcotest.test_case "query_words == query_many" `Quick
      prop_query_words_differential;
    Alcotest.test_case "strict shards refuse at the same query" `Quick
      prop_strict_exhaustion_point;
    Alcotest.test_case "faulted query_words == query_many" `Quick
      prop_faulted_query_words;
    Alcotest.test_case "transient fault transparency" `Quick
      prop_transient_faults_transparent;
    Alcotest.test_case "degraded netlists lint clean" `Quick
      prop_degraded_netlist_lints;
    Alcotest.test_case "circuit cache round-trip" `Quick prop_cache_roundtrip;
    Alcotest.test_case "fingerprints hash behaviour, not structure" `Quick
      prop_fingerprint_behavioural;
    Alcotest.test_case "SAT sweeping == exhaustive tables" `Quick
      prop_sat_sweeping_exhaustive;
    Alcotest.test_case "shrinking reaches a minimum" `Quick
      test_shrinking_works;
  ]
