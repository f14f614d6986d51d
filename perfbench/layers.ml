(* The traced run's layer replays. Each layer's public entry point is
   called again, from outside, on the workload's own inputs, under the
   benchmark's spans; its counts are read from its return values. Where
   a replay does the same work as a learner phase (same inputs, same RNG
   stream), its counts must equal that phase's, and any mismatch is
   printed. *)

open Common
module Box = Lr_blackbox.Blackbox
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module Ps = Lr_sampling.Pattern_sampling
module Fbdt = Lr_fbdt.Fbdt
module Oracle = Lr_fbdt.Oracle
module Espresso = Lr_espresso.Espresso
module G = Lr_grouping.Grouping
module T = Lr_templates.Templates
module Aig = Lr_aig.Aig
module Opt = Lr_aig.Opt
module Rewrite = Lr_aig.Rewrite
module Fraig = Lr_aig.Fraig
module Sweep = Lr_dataflow.Sweep
module Soa = Lr_kernel.Soa
module Config = Logic_regression.Config
module Fingerprint = Lr_serve.Fingerprint
module Cache = Lr_serve.Cache
module Proto = Lr_serve.Proto

(* Count-type layer metrics, summed over cases. *)
type counts = (string, float) Hashtbl.t

let get (acc : counts) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)
let add (acc : counts) k v = Hashtbl.replace acc k (get acc k +. v)
let addi acc k v = add acc k (float_of_int v)
let mismatches = ref 0

let fidelity ~case what ~replay ~learner =
  if replay <> learner then begin
    incr mismatches;
    Printf.printf "replay mismatch %s %s: replay %d, learner %d\n%!" case what
      replay learner
  end

let phase_queries (r : Learner.report) name =
  Option.value ~default:0 (List.assoc_opt name r.Learner.phase_queries)

(* The learner's RNG streams, split off the master seed in the order
   [Learner.learn] splits them. *)
type streams = {
  template_rng : Rng.t;
  support_rng : Rng.t;
  tree_rng : Rng.t;
  opt_rng : Rng.t;
  sweep_rng : Rng.t;
}

let streams seed =
  let master = Rng.create seed in
  let template_rng = Rng.split master in
  let support_rng = Rng.split master in
  let tree_rng = Rng.split master in
  let opt_rng = Rng.split master in
  let _check_rng = Rng.split master in
  let sweep_rng = Rng.split master in
  { template_rng; support_rng; tree_rng; opt_rng; sweep_rng }

(* ---------- lr_blackbox: query accounting vs bare evaluation ---------- *)

let box_layer tr acc ~seed (c : case) =
  let ni = N.num_inputs c.golden in
  let rng = Rng.create (seed + c.spec.Cases.seed) in
  (* toggle-shaped batches, as support identification sends them: a
     base pattern and one copy per input with that input flipped *)
  let batches =
    Array.init 16 (fun _ ->
        let base = Bv.random rng ni in
        Array.init (ni + 1) (fun i ->
            if i = 0 then base
            else
              let a = Bv.copy base in
              Bv.flip a (i - 1);
              a))
  in
  let box = Box.of_netlist c.golden in
  let reps = 4 in
  let drive name f =
    Spans.span tr ~owner:c.name name (fun () ->
        for _ = 1 to reps do
          Array.iter (fun b -> ignore (f box b)) batches
        done)
  in
  drive "box.query" Box.query_many;
  drive "box.probe" Box.probe_many;
  let calls = reps * Array.length batches in
  addi acc "box.patterns" (calls * (ni + 1));
  (* node evaluations per 64-pattern word, as the simulators count *)
  addi acc "box.node_words" (calls * ((ni + 64) / 64) * N.num_nodes c.golden)

(* ---------- lr_netlist / lr_kernel: simulation per node ---------- *)

let sim_layer tr acc ~seed (c : case) =
  let rng = Rng.create (seed lxor c.spec.Cases.seed) in
  let words = Array.init (N.num_inputs c.golden) (fun _ -> Rng.bits64 rng) in
  let nodes = N.num_nodes c.golden in
  let calls = max 10 (1_000_000 / nodes) in
  Spans.span tr ~owner:c.name "sim.netlist" (fun () ->
      for _ = 1 to calls do
        ignore (N.eval_words c.golden words)
      done);
  let soa = Soa.of_netlist c.golden in
  Spans.span tr ~owner:c.name "sim.soa" (fun () ->
      for _ = 1 to calls do
        ignore (Soa.eval_words soa words)
      done);
  addi acc "sim.node_words" (calls * nodes)

(* ---------- templates, support-id, FBDT, two-level cover ----------
   Replayed on one fresh box in the learner's order, so the budget
   slices handed to the per-output shards match the learner's. *)

(* Espresso's expand step grows with onset x offset size: covers past
   this many cubes (onset and offset together) take minutes, so they are
   counted in cover.skipped instead of minimized. *)
let cover_limit = 512

let pipeline_layers tr acc ~(config : Config.t) ~budget (l : Learn_run.learned)
    =
  let c = l.Learn_run.case and r = l.Learn_run.report in
  let span name f = Spans.span tr ~owner:c.name name f in
  let s = streams config.Config.seed in
  let box = Box.of_netlist ~budget c.golden in
  let ni = Box.num_inputs box and no = Box.num_outputs box in
  let matches =
    if config.Config.use_grouping && config.Config.use_templates then
      Some
        (span "templates" (fun () ->
             ignore (G.group (Box.input_names box));
             ignore (G.group (Box.output_names box));
             T.scan ~samples:config.Config.template_samples
               ~prop_cubes:config.Config.template_prop_cubes
               ~rng:s.template_rng box))
    else None
  in
  let tq = Box.queries_used box in
  addi acc "templates.queries" tq;
  fidelity ~case:c.name "templates.queries" ~replay:tq
    ~learner:(phase_queries r "templates");
  let handled = match matches with Some m -> T.matched_outputs m | None -> [] in
  addi acc "templates.matched" (List.length handled);
  let remaining =
    List.filter (fun o -> not (List.mem o handled)) (List.init no Fun.id)
  in
  if remaining <> [] then begin
    let stats, gc =
      with_alloc (fun () ->
          span "support" (fun () ->
              Ps.run ~rounds:config.Config.support_rounds ~rng:s.support_rng
                box ~constraint_:(Cube.top ni) ()))
    in
    let sq = Box.queries_used box - tq in
    addi acc "support.queries" sq;
    add acc "support.alloc_words" (allocated gc);
    addi acc "support.major_gcs" gc.Gcstat.major_collections;
    fidelity ~case:c.name "support.queries" ~replay:sq
      ~learner:(phase_queries r "support-id");
    fidelity ~case:c.name "support.queries vs rounds x (|I|+1)" ~replay:sq
      ~learner:(config.Config.support_rounds * (ni + 1));
    (* outputs whose inputs the learner compressed through a hidden
       comparator learn over a virtual domain the public API does not
       expose; they are not replayed, so the phase count is not compared *)
    let compressed po =
      match matches with
      | None -> false
      | Some m ->
          List.exists
            (fun cmp -> cmp.T.po = po && cmp.T.prop_cube <> None)
            m.T.comparators
    in
    let n_tasks = List.length remaining in
    let left = max 0 (budget - Box.queries_used box) in
    let each = left / n_tasks and extra = left mod n_tasks in
    let fbdt_queries = ref 0 and comparable = ref true in
    List.iteri
      (fun i po ->
        if compressed po then comparable := false
        else begin
          let shard =
            Box.shard
              ~budget:(each + if i < extra then 1 else 0)
              ~fault_key:po box
          in
          let support = Ps.support stats ~output:po in
          let rng = Rng.split_keyed s.tree_rng po in
          let oracle =
            {
              Oracle.arity = ni;
              query =
                (fun arr ->
                  Array.map (fun o -> Bv.get o po) (Box.query_many shard arr));
              exhausted = (fun () -> Box.exhausted shard);
            }
          in
          let res, gc =
            with_alloc (fun () ->
                span "fbdt" (fun () ->
                    if
                      List.length support
                      <= config.Config.small_support_threshold
                    then Fbdt.learn_exhaustive ~rng ~support oracle
                    else
                      Fbdt.learn ~support
                        {
                          Fbdt.node_rounds = config.Config.node_rounds;
                          biases = Ps.default_biases;
                          leaf_epsilon = config.Config.leaf_epsilon;
                          max_nodes = config.Config.max_tree_nodes;
                        }
                        ~rng oracle))
          in
          fbdt_queries := !fbdt_queries + Box.queries_used shard;
          addi acc "fbdt.nodes" res.Fbdt.nodes_expanded;
          add acc "fbdt.alloc_words" (allocated gc);
          let use_offset =
            config.Config.use_onset_offset && res.Fbdt.truth_ratio > 0.5
          in
          let chosen, other =
            if use_offset then (res.Fbdt.offset, res.Fbdt.onset)
            else (res.Fbdt.onset, res.Fbdt.offset)
          in
          if Cover.num_cubes chosen + Cover.num_cubes other <= cover_limit
          then begin
            let out =
              span "cover" (fun () ->
                  Espresso.minimize ~onset:chosen ~offset:other ())
            in
            addi acc "cover.cubes_in" (Cover.num_cubes chosen);
            addi acc "cover.cubes_out" (Cover.num_cubes out)
          end
          else addi acc "cover.skipped" 1
        end)
      remaining;
    addi acc "fbdt.queries" !fbdt_queries;
    if !comparable && config.Config.refine_rounds = 0 then
      fidelity ~case:c.name "fbdt.queries" ~replay:!fbdt_queries
        ~learner:(phase_queries r "fbdt")
  end

(* ---------- lr_aig: each pass alone on the pre-optimisation AIG ---------- *)

(* Above this many AND nodes the learner runs only balance and rewrite. *)
let large_aig = 25_000

let aig_layers tr acc ~(config : Config.t) ~budget (c : case) =
  let span name f = Spans.span tr ~owner:c.name name f in
  let s = streams config.Config.seed in
  let pre =
    span "learn.unoptimized" (fun () ->
        (Learner.learn
           ~config:
             {
               config with
               Config.optimize = false;
               sweep = Config.Sweep_off;
               check_level = Config.Off;
             }
           (Box.of_netlist ~budget c.golden))
          .Learner.circuit)
  in
  let aig = Aig.of_netlist pre in
  let ands = Aig.num_ands aig in
  let pass name f =
    let out = span ("aig." ^ name) (fun () -> f aig) in
    addi acc ("aig." ^ name ^ ".removed") (ands - Aig.num_ands out)
  in
  pass "balance" Opt.balance;
  pass "rewrite" Opt.rewrite;
  if ands <= large_aig then begin
    pass "cut-rewrite" (fun a -> Rewrite.cut_rewrite a);
    pass "fraig"
      (Fraig.sweep ~words:config.Config.fraig_words ~kernel:config.Config.kernel
         ~rng:(Rng.copy s.opt_rng));
    pass "compress"
      (Opt.compress ~max_rounds:config.Config.optimize_rounds
         ~fraig_words:config.Config.fraig_words ~kernel:config.Config.kernel
         ~rng:s.opt_rng)
  end

(* ---------- lr_dataflow: the sweep on the pre-sweep circuit ---------- *)

let sweep_layer tr acc ~(config : Config.t) ~budget (l : Learn_run.learned) =
  let c = l.Learn_run.case and r = l.Learn_run.report in
  let span name f = Spans.span tr ~owner:c.name name f in
  let pre_sweep =
    if config.Config.sweep = Config.Sweep_off then r.Learner.circuit
    else
      span "learn.unswept" (fun () ->
          (Learner.learn
             ~config:
               {
                 config with
                 Config.sweep = Config.Sweep_off;
                 check_level = Config.Off;
               }
             (Box.of_netlist ~budget c.golden))
            .Learner.circuit)
  in
  let s = streams config.Config.seed in
  let level =
    if config.Config.sweep = Config.Sweep_const then Sweep.Const_prop
    else Sweep.Full
  in
  let _, st =
    span "sweep" (fun () ->
        Sweep.run ~level ~kernel:config.Config.kernel ~rng:s.sweep_rng
          pre_sweep)
  in
  addi acc "sweep.removed" (Sweep.removed st);
  addi acc "sweep.sat_calls" st.Sweep.sat_calls;
  addi acc "sweep.const_folded" st.Sweep.const_folded;
  addi acc "sweep.merged" st.Sweep.merged;
  addi acc "sweep.xor_recovered" st.Sweep.xor_recovered;
  addi acc "sweep.odc_rewrites" st.Sweep.odc_rewrites;
  if config.Config.sweep <> Config.Sweep_off then
    fidelity ~case:c.name "sweep.removed" ~replay:(Sweep.removed st)
      ~learner:r.Learner.sweep_removed

(* ---------- lr_sat via Equiv, and the serve cache in-process ---------- *)

let cec_layer tr acc (l : Learn_run.learned) =
  let c = l.Learn_run.case in
  let verdict =
    Spans.span tr ~owner:c.name "cec" (fun () ->
        Equiv.check l.Learn_run.report.Learner.circuit c.golden)
  in
  addi acc "cec.calls" 1;
  verdict = Equiv.Equivalent

(* The daemon's hit path without HTTP: fingerprint the box, insert the
   learned circuit, look it up with the daemon's CEC verifier. *)
let cache_layer tr cache ~spec ~budget (l : Learn_run.learned) =
  let c = l.Learn_run.case in
  let span name f = Spans.span tr ~owner:c.name name f in
  let box = Box.of_netlist ~budget c.golden in
  let fingerprint = span "serve.fingerprint" (fun () -> Fingerprint.probe box) in
  let key =
    Cache.key ~fingerprint
      ~names_sig:(Fingerprint.names_signature box)
      ~config_sig:(Proto.config_signature spec)
  in
  Cache.insert cache ~key ~circuit:l.Learn_run.report.Learner.circuit
    ~report:Lr_instr.Json.Null;
  ignore
    (span "serve.verify" (fun () ->
         Cache.lookup cache ~key ~verify:(fun circuit ->
             interface_matches c circuit && exact c circuit)))

(* Every replay for one case; true when its learned circuit is exact. *)
let run_case tr acc ~seed ~(w : Workloads.t) ~config cache l =
  let c = l.Learn_run.case and budget = w.Workloads.budget in
  box_layer tr acc ~seed c;
  sim_layer tr acc ~seed c;
  pipeline_layers tr acc ~config ~budget l;
  aig_layers tr acc ~config ~budget c;
  sweep_layer tr acc ~config ~budget l;
  let exact = cec_layer tr acc l in
  cache_layer tr cache ~spec:(w.Workloads.spec seed c.name) ~budget l;
  exact
