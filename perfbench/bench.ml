(* The benchmark's entry point: run one workload for one seed and print its
   metrics, with the result as a JSON object on the last line.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --serve-exe PATH --out-dir DIR [--nproc N] [--flambda B]

   perfbench/run.py builds the program and calls this; see
   perfbench/README.md for the workloads and every metric. *)

open Common
module Json = Lr_instr.Json
module Scheduler = Lr_serve.Scheduler
module Cache = Lr_serve.Cache
module Config = Logic_regression.Config

type args = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  serve_exe : string;
  out_dir : string;
  nproc : string;
  flambda : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload conquer|verified_synth|serve_mix --seed N \
     --seconds S --trace 0|1 --serve-exe PATH --out-dir DIR";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let req k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (req k) with Some n -> n | None -> usage () in
  let opt k d = Option.value (Hashtbl.find_opt tbl k) ~default:d in
  {
    workload =
      (match Workloads.find (req "workload") with
      | Some w -> w
      | None -> usage ());
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace =
      (match req "trace" with "0" -> false | "1" -> true | _ -> usage ());
    serve_exe = req "serve-exe";
    out_dir = req "out-dir";
    nproc = opt "nproc" "unknown";
    flambda = opt "flambda" "unknown";
  }

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let print_table ms =
  List.iter
    (fun x -> Printf.printf "  %-30s %16.6g %s\n" x.name x.value x.unit_)
    ms

let quality_metrics quals =
  let n = float_of_int (max 1 (List.length quals)) in
  [
    m "gates" "count"
      (float_of_int (List.fold_left (fun a q -> a + q.gates) 0 quals));
    m "accuracy_pct" "%" (sum (List.map (fun q -> q.accuracy) quals) /. n);
    m "exact_cases" "count"
      (float_of_int (List.length (List.filter (fun q -> q.exact) quals)));
  ]

let top_heap_mb () =
  mb_of_words (float_of_int (Gcstat.sample ()).Gcstat.top_heap_words)

(* Share of learn time the learner's own report gives to the query
   path: the workload-separation check. *)
let query_path_share learned =
  let phase name (l : Learn_run.learned) =
    Option.value ~default:0.0
      (List.assoc_opt name l.Learn_run.report.Learner.phase_times)
  in
  let qp =
    sum (List.map (fun l -> phase "support-id" l +. phase "fbdt" l) learned)
  in
  let total =
    sum (List.map (fun l -> l.Learn_run.report.Learner.elapsed_s) learned)
  in
  100.0 *. qp /. total

(* ---------- untraced runs: the end-to-end metrics ---------- *)

let learn_e2e a =
  let w = a.workload in
  let cases, setup_s =
    timed_setup ~reps:5 (fun () -> setup_cases ~seed:a.seed w.Workloads.cases)
  in
  let r =
    Learn_run.run ~tr:(Spans.create ~on:false) ~config:(w.Workloads.config a.seed)
      ~budget:w.Workloads.budget ~seconds:a.seconds cases
  in
  let learned = r.Learn_run.learned in
  let quals =
    qualities
      (List.map
         (fun l -> (l.Learn_run.case, l.Learn_run.report.Learner.circuit))
         learned)
  in
  Printf.printf "learns: %d in %.2f s; support-id + fbdt share of learn time: %.1f%%\n"
    r.Learn_run.attempted r.Learn_run.window_s (query_path_share learned);
  let ms =
    [ m "learn_wall_s" "s" (Learn_run.wall_s r) ]
    @ quality_metrics quals
    @ [
        m "queries" "count"
          (float_of_int
             (List.fold_left
                (fun acc l -> acc + l.Learn_run.report.Learner.queries)
                0 learned));
        m "alloc_mwords" "Mwords"
          (sum (List.map (fun l -> l.Learn_run.alloc_words) learned) /. 1e6);
        m "peak_heap_mb" "MB" (top_heap_mb ());
        m "setup_s" "s" setup_s;
      ]
  in
  (ms, r.Learn_run.attempted)

(* The serve mix's size follows the run length: one warm pass per 12
   seconds, at least one. *)
let warm_passes a = max 1 (int_of_float a.seconds / 12)

(* Spawn the daemon [reps] times, timing spawn-to-healthz; keep the
   last one running. *)
let spawn_daemons a ~reps =
  let rec go k times =
    let d, dt = Daemon.spawn ~exe:a.serve_exe ~dir:a.out_dir in
    if k = 1 then (d, median (dt :: times))
    else begin
      ignore (Daemon.stop d);
      go (k - 1) (dt :: times)
    end
  in
  go reps []

let serve_e2e a =
  let w = a.workload in
  let cases = setup_cases ~seed:a.seed w.Workloads.cases in
  let d, setup_s = spawn_daemons a ~reps:5 in
  let r =
    Serve_run.run ~tr:(Spans.create ~on:false) ~port:d.Daemon.port
      ~seed:a.seed ~warm:(warm_passes a) w cases
  in
  let exit_stats = Daemon.stop d in
  let cold = r.Serve_run.cold in
  let quals =
    qualities (List.map (fun (c, j) -> (c, Io.read j.Serve_run.text)) cold)
  in
  let daemon f =
    match exit_stats with
    | Some s -> f s
    | None ->
        fail ~what:"lr_serve" "no GC statistics at exit";
        nan
  in
  Printf.printf "jobs: %d in %d passes over %.2f s; cache %s\n"
    (List.length r.Serve_run.jobs) r.Serve_run.passes r.Serve_run.window_s
    (match r.Serve_run.cache_stats with
    | Some j -> Json.to_string j
    | None -> "unavailable");
  let ms =
    [
      m "learn_wall_s" "s"
        (sum (List.map (fun (_, j) -> j.Serve_run.latency) cold));
    ]
    @ quality_metrics quals
    @ [
        m "queries" "count"
          (float_of_int
             (List.fold_left (fun acc (_, j) -> acc + j.Serve_run.queries) 0 cold));
        m "alloc_mwords" "Mwords"
          (daemon (fun s -> s.Daemon.allocated_words /. 1e6));
        m "peak_heap_mb" "MB"
          (daemon (fun s -> mb_of_words s.Daemon.top_heap_words));
        m "setup_s" "s" setup_s;
      ]
    @
    let latencies = List.map (fun j -> j.Serve_run.latency) r.Serve_run.jobs in
    [
      m "serve_jobs_per_s" "jobs/s"
        (float_of_int (List.length latencies) /. r.Serve_run.window_s);
      m "serve_p50_ms" "ms" (1e3 *. percentile 0.5 latencies);
      m "serve_p90_ms" "ms" (1e3 *. percentile 0.9 latencies);
    ]
  in
  (ms, r.Serve_run.attempted)

(* ---------- traced runs: the per-layer metrics ---------- *)

(* One spec timed as a cache hit over HTTP and in-process
   (Scheduler.submit + wait); the difference is what HTTP adds. The first
   of the [reps + 1] submissions on each side may be the cold learn. *)
let hit_split tr ~port spec ~reps =
  let http =
    List.filter_map
      (fun _ ->
        match Serve_run.run_job ~tr ~port spec with
        | latency, body
          when Option.bind (Json.member "cache_hit" body) Json.get_bool
               = Some true ->
            Some latency
        | _ -> None
        | exception ((Daemon.Http_error _ | Unix.Unix_error _) as e) ->
            fail ~what:"serve hit" (Printexc.to_string e);
            None)
      (List.init (reps + 1) Fun.id)
  in
  let sched = Scheduler.create ~slots:1 () in
  let inproc =
    Fun.protect
      ~finally:(fun () -> Scheduler.shutdown sched)
      (fun () ->
        List.filter_map
          (fun _ ->
            let t0 = now () in
            match Scheduler.submit sched spec with
            | Error _ ->
                fail ~what:"in-process submit" "refused";
                None
            | Ok job ->
                Scheduler.wait sched job;
                let dt = now () -. t0 in
                if job.Scheduler.cache = `Hit then Some dt else None)
          (List.init (reps + 1) Fun.id))
  in
  if http = [] || inproc = [] then
    fail ~what:"latency split" (spec.Lr_serve.Proto.case ^ " was never a cache hit");
  (median http, median inproc, 2 * (reps + 1))

let cache_stats ~port =
  match Daemon.request ~port "GET" "/cache/stats" with
  | { Daemon.status = 200; body } -> (
      match Json.of_string body with
      | Ok j ->
          let g k =
            Option.value ~default:0 (Option.bind (Json.member k j) Json.get_int)
          in
          {
            Cache.entries = g "entries";
            hits = g "hits";
            misses = g "misses";
            refused = g "refused";
            inserts = g "inserts";
          }
      | Error e -> raise (Daemon.Http_error e))
  | r -> raise (Daemon.Http_error (string_of_int r.Daemon.status))

let traced a =
  let w = a.workload in
  let tr = Spans.create ~on:true in
  let off = Spans.create ~on:false in
  let cases = setup_cases ~seed:a.seed w.Workloads.cases in
  (* replays and the hit split use the run's first learner seed *)
  let lseed = List.hd (w.Workloads.learner_seeds a.seed) in
  let config = w.Workloads.config lseed and budget = w.Workloads.budget in
  (* each case learned untraced and traced back to back, so a drift in
     machine speed does not show up as tracing overhead; which goes first
     alternates, because a learn runs slower after another has grown the
     heap *)
  let pairs =
    List.mapi
      (fun i c ->
        let learn tr = Learn_run.run ~tr ~config ~budget [ c ] in
        if i mod 2 = 0 then
          let u = learn off in
          (u, learn tr)
        else
          let t = learn tr in
          (learn off, t))
      cases
  in
  let wall f = sum (List.map (fun p -> Learn_run.wall_s (f p)) pairs) in
  let overhead_pct = 100.0 *. (wall snd -. wall fst) /. wall fst in
  let learned = List.concat_map (fun (u, _) -> u.Learn_run.learned) pairs in
  let acc = Hashtbl.create 64 in
  let cache = Cache.create () in
  let exact_ones =
    List.filter (Layers.run_case tr acc ~seed:lseed ~w ~config cache) learned
  in
  (* the daemon: the whole mix for serve_mix; then the HTTP vs
     in-process split on the exact case with the largest golden circuit,
     whose CEC-verified hit outlasts the client's opening of the progress
     tail, as most hits do *)
  let hit_case =
    let nodes l = N.num_nodes l.Learn_run.case.golden in
    match List.sort (fun x y -> compare (nodes y) (nodes x)) exact_ones with
    | l :: _ -> l.Learn_run.case.name
    | [] -> (List.hd learned).Learn_run.case.name
  in
  let d, _ = Daemon.spawn ~exe:a.serve_exe ~dir:a.out_dir in
  let http_hit, inproc_hit, serve_attempted, c =
    Fun.protect
      ~finally:(fun () -> ignore (Daemon.stop d))
      (fun () ->
        let mix_attempted =
          if w.Workloads.kind = Workloads.Serve then
            (Serve_run.run ~tr ~port:d.Daemon.port ~seed:a.seed ~warm:2 w cases)
              .Serve_run.attempted
          else 0
        in
        let http_hit, inproc_hit, split_attempted =
          hit_split tr ~port:d.Daemon.port (w.Workloads.spec lseed hit_case)
            ~reps:5
        in
        let c =
          try cache_stats ~port:d.Daemon.port
          with Daemon.Http_error e | Unix.Unix_error (_, e, _) ->
            fail ~what:"GET /cache/stats" e;
            Cache.stats cache
        in
        (http_hit, inproc_hit, mix_attempted + split_attempted, c))
  in
  let ms_of name = 1e3 *. Spans.seconds tr name in
  let ns_per name denom = 1e9 *. Spans.seconds tr name /. Layers.get acc denom in
  let per_s count name = Layers.get acc count /. Spans.seconds tr name in
  let median_ms name = 1e3 *. median (Spans.durations tr name) in
  let sum_phase f =
    List.fold_left (fun a l -> a + f l.Learn_run.report) 0 learned
  in
  let phase_count name =
    [
      m
        (Printf.sprintf "phase.%s.queries" name)
        "count"
        (float_of_int
           (sum_phase (fun r ->
                Option.value ~default:0
                  (List.assoc_opt name r.Learner.phase_queries))));
      m
        (Printf.sprintf "phase.%s.major_gcs" name)
        "gcs"
        (float_of_int
           (sum_phase (fun r ->
                match List.assoc_opt name r.Learner.phase_gc with
                | Some g -> g.Gcstat.major_collections
                | None -> 0)));
    ]
  in
  let aig name =
    [
      m (Printf.sprintf "aig.%s.ms" name) "ms" (ms_of ("aig." ^ name));
      m
        (Printf.sprintf "aig.%s.removed" name)
        "count"
        (Layers.get acc (Printf.sprintf "aig.%s.removed" name));
    ]
  in
  let count name = m name "count" (Layers.get acc name) in
  let box_q = ns_per "box.query" "box.patterns"
  and box_p = ns_per "box.probe" "box.patterns" in
  let ms =
    [
      m "box.query_ns" "ns" box_q;
      m "box.probe_ns" "ns" box_p;
      m "box.accounting_ns" "ns" (box_q -. box_p);
      m "box.ns_per_node" "ns" (ns_per "box.probe" "box.node_words");
      m "sim.netlist_ns_per_node" "ns" (ns_per "sim.netlist" "sim.node_words");
      m "sim.soa_ns_per_node" "ns" (ns_per "sim.soa" "sim.node_words");
      m "support.s" "s" (Spans.seconds tr "support");
      count "support.queries";
      m "support.queries_per_s" "1/s" (per_s "support.queries" "support");
      m "support.alloc_mwords" "Mwords"
        (Layers.get acc "support.alloc_words" /. 1e6);
      m "support.major_gcs" "gcs" (Layers.get acc "support.major_gcs");
      m "fbdt.s" "s" (Spans.seconds tr "fbdt");
      count "fbdt.nodes";
      m "fbdt.nodes_per_s" "1/s" (per_s "fbdt.nodes" "fbdt");
      count "fbdt.queries";
      m "fbdt.alloc_mwords" "Mwords" (Layers.get acc "fbdt.alloc_words" /. 1e6);
      m "cover.s" "s" (Spans.seconds tr "cover");
      count "cover.cubes_in";
      count "cover.cubes_out";
      count "cover.skipped";
      m "templates.s" "s" (Spans.seconds tr "templates");
      count "templates.queries";
      count "templates.matched";
    ]
    @ List.concat_map aig [ "balance"; "rewrite"; "cut-rewrite"; "fraig"; "compress" ]
    @ [
        m "sweep.ms" "ms" (ms_of "sweep");
        count "sweep.removed";
        count "sweep.sat_calls";
        count "sweep.const_folded";
        count "sweep.merged";
        count "sweep.xor_recovered";
        count "sweep.odc_rewrites";
        m "cec.ms" "ms" (ms_of "cec");
        count "cec.calls";
      ]
    @ List.concat_map phase_count
        [ "templates"; "support-id"; "fbdt"; "cover-min"; "aig-opt"; "sweep" ]
    @ [
        m "phase.query_path_pct" "%" (query_path_share learned);
        m "serve.submit_ms" "ms" (median_ms "serve.post");
        m "serve.fingerprint_ms" "ms" (median_ms "serve.fingerprint");
        m "serve.verify_ms" "ms" (median_ms "serve.verify");
        m "serve.inproc_hit_ms" "ms" (1e3 *. inproc_hit);
        m "serve.http_overhead_ms" "ms" (1e3 *. (http_hit -. inproc_hit));
        m "cache.hits" "count" (float_of_int c.Cache.hits);
        m "cache.misses" "count" (float_of_int c.Cache.misses);
        m "cache.refused" "count" (float_of_int c.Cache.refused);
        m "cache.inserts" "count" (float_of_int c.Cache.inserts);
        m "cache.hit_ratio" "ratio"
          (float_of_int c.Cache.hits
          /. float_of_int (max 1 (c.Cache.hits + c.Cache.misses)));
        m "replay.mismatches" "count" (float_of_int !Layers.mismatches);
        m "trace.overhead_pct" "%" overhead_pct;
      ]
  in
  let attempted =
    List.fold_left
      (fun n (u, t) -> n + u.Learn_run.attempted + t.Learn_run.attempted)
      serve_attempted pairs
  in
  (ms, attempted, tr)

(* ---------- main ---------- *)

(* A digest of everything the seed generates: the learner configs and
   serve specs, the hidden patterns, and the serve job order of the
   first passes. The self-test compares it across seeds. *)
let inputs_digest a =
  let w = a.workload in
  let cases = setup_cases ~seed:a.seed w.Workloads.cases in
  let buf = Buffer.create 4096 in
  let seeds = w.Workloads.learner_seeds a.seed in
  List.iter
    (fun s ->
      let config = w.Workloads.config s in
      Buffer.add_string buf
        (Printf.sprintf "seed=%d;rounds=%d;nodes=%d;budget=%d;"
           config.Config.seed config.Config.support_rounds
           config.Config.max_tree_nodes w.Workloads.budget))
    seeds;
  List.iter
    (fun (c : case) ->
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Lr_serve.Proto.config_signature (w.Workloads.spec s c.name)))
        seeds;
      Array.iter
        (fun p -> Buffer.add_string buf (Bv.to_string p))
        (patterns c))
    cases;
  let order = Workloads.order_rng a.seed in
  for _ = 1 to 2 do
    List.iter
      (fun ((c : case), s) -> Buffer.add_string buf (Printf.sprintf "%s/%d" c.name s))
      (Workloads.shuffle order (Serve_run.items w ~seed:a.seed cases))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let context a =
  Json.Obj
    [
      ("workload", Json.String a.workload.Workloads.name);
      ("seed", Json.Int a.seed);
      ("seconds", Json.Float a.seconds);
      ("trace", Json.Bool a.trace);
      ("nproc", Json.String a.nproc);
      ( "recommended_domain_count",
        Json.Int (Domain.recommended_domain_count ()) );
      ("ocaml", Json.String Sys.ocaml_version);
      ("flambda", Json.String a.flambda);
      ("learner_jobs", Json.Int 1);
    ]

let () =
  let a = parse_args () in
  (try Unix.mkdir a.out_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit Daemon.stop_all;
  Printf.printf "context: %s\n%!" (Json.to_string (context a));
  let ms, attempted =
    if a.trace then begin
      let ms, attempted, tr = traced a in
      let file =
        Filename.concat a.out_dir
          (Printf.sprintf "trace-%s-seed%d.json" a.workload.Workloads.name
             a.seed)
      in
      Spans.write tr ~file ~context:(context a);
      Printf.printf "spans written to %s\n" file;
      (ms, attempted)
    end
    else
      match a.workload.Workloads.kind with
      | Workloads.Learn -> learn_e2e a
      | Workloads.Serve -> serve_e2e a
  in
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        fail ~what:x.name "metric is not a finite number")
    ms;
  Printf.printf "inputs: %s\n" (inputs_digest a);
  let failed = List.length !failures in
  print_table
    (ms
    @
    if a.trace then []
    else
      [
        m "failed_frac" "ratio"
          (float_of_int failed /. float_of_int (max 1 attempted));
      ]);
  let correct = !failures = [] in
  let metric x =
    ( x.name,
      Json.Obj
        [
          ( "value",
            if Float.is_finite x.value then Json.Float x.value else Json.Int 0 );
          ("unit", Json.String x.unit_);
        ] )
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 attempted));
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric ms));
          ]));
  exit (if correct then 0 else 1)
