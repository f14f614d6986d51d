(* The serve workload: one closed-loop client drives the lr_serve daemon
   (one slot) over loopback HTTP, one connection at a time. Each job is
   POST /learn, then GET /jobs/ID/progress until the tail ends, then
   GET /jobs/ID/result; its latency runs from the POST to the result
   body. The first pass over the specs is cold; later passes repeat
   them, so exact circuits come back as CEC-verified cache hits and
   approximate ones are refused, evicted and learned again. *)

open Common
module Json = Lr_instr.Json
module Proto = Lr_serve.Proto
module Rng = Lr_bitvec.Rng

type job = {
  latency : float;
  text : string;  (** the served circuit *)
  queries : int;  (** as the served report gives them *)
}

type result = {
  cold : (Common.case * job) list;  (** the cold pass *)
  jobs : job list;  (** every completed job, in order *)
  attempted : int;
  passes : int;
  window_s : float;
  cache_stats : Json.t option;  (** GET /cache/stats after the last job *)
}

let member_exn path json =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> raise (Daemon.Http_error ("result lacks " ^ k)))
    json path

let parse_json s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> raise (Daemon.Http_error ("bad JSON: " ^ e))

let expect_2xx what (r : Daemon.reply) =
  if r.Daemon.status < 200 || r.Daemon.status > 299 then
    raise
      (Daemon.Http_error
         (Printf.sprintf "%s answered %d: %s" what r.Daemon.status
            (String.trim r.Daemon.body)))

(* One job, start to finish. *)
let run_job ~tr ~port spec =
  let span name f = Spans.span tr ~owner:spec.Proto.case name f in
  let t0 = now () in
  let posted =
    span "serve.post" (fun () ->
        Daemon.request ~port
          ~body:(Json.to_string (Proto.to_json spec))
          "POST" "/learn")
  in
  expect_2xx "POST /learn" posted;
  let id =
    match Json.get_string (member_exn [ "job" ] (parse_json posted.Daemon.body))
    with
    | Some id -> id
    | None -> raise (Daemon.Http_error "POST /learn gave no job id")
  in
  span "serve.progress" (fun () ->
      expect_2xx "progress"
        (Daemon.request ~port "GET" ("/jobs/" ^ id ^ "/progress")));
  let res =
    span "serve.result" (fun () ->
        Daemon.request ~port "GET" ("/jobs/" ^ id ^ "/result"))
  in
  let latency = now () -. t0 in
  expect_2xx "result" res;
  (latency, parse_json res.Daemon.body)

(* The checks on one served result; raises with the reason on failure. *)
let check_result (c : case) ~cold_text body =
  let cache_hit =
    Json.get_bool (member_exn [ "cache_hit" ] body) = Some true
  in
  let text =
    match Json.get_string (member_exn [ "circuit" ] body) with
    | Some t -> t
    | None -> raise (Daemon.Http_error "circuit is not a string")
  in
  let int_field k =
    match Json.get_int (member_exn [ "report"; k ] body) with
    | Some v -> v
    | None -> raise (Daemon.Http_error ("report." ^ k ^ " is not an int"))
  in
  let circuit = Io.read text in
  if int_field "size" <> N.size circuit then
    raise (Daemon.Http_error "report size differs from the served circuit");
  if int_field "degraded" > 0 then raise (Daemon.Http_error "degraded learn");
  if Json.get_bool (member_exn [ "report"; "budget_exceeded" ] body) = Some true
  then raise (Daemon.Http_error "time budget exceeded");
  Option.iter (fun e -> raise (Daemon.Http_error e)) (circuit_fault c circuit);
  (match cold_text with
  | Some t when t <> text ->
      raise
        (Daemon.Http_error
           (if cache_hit then "cache hit differs from the cold learn"
            else "repeat learn differs from the cold learn"))
  | _ -> ());
  (text, int_field "queries")

(* Every (case, learner seed) pair the seed generates: one spec each. *)
let items (w : Workloads.t) ~seed cases =
  List.concat_map
    (fun c -> List.map (fun s -> (c, s)) (w.Workloads.learner_seeds seed))
    cases

(* The mix for one run: one cold pass over every spec, then [warm] warm
   passes, each in a new seeded order. The composition depends only on
   the seed and [warm], so percentiles and the daemon's allocation
   compare across runs. *)
let run ~tr ~port ~seed ~warm (w : Workloads.t) cases =
  let order_rng = Workloads.order_rng seed in
  let items = items w ~seed cases in
  let cold_texts = Hashtbl.create 64 in
  let jobs = ref [] and cold = ref [] and attempted = ref 0 in
  let t_start = now () in
  for k = 0 to warm do
    List.iter
      (fun ((c : case), s) ->
        incr attempted;
        let what = Printf.sprintf "serve %s seed %d pass %d" c.name s k in
        match
          let latency, body = run_job ~tr ~port (w.Workloads.spec s c.name) in
          let text, queries =
            check_result c
              ~cold_text:(Hashtbl.find_opt cold_texts (c.name, s))
              body
          in
          { latency; text; queries }
        with
        | exception
            ((Daemon.Http_error _ | Unix.Unix_error _ | Failure _) as e) ->
            fail ~what
              (match e with
              | Daemon.Http_error m | Failure m -> m
              | e -> Printexc.to_string e)
        | j ->
            if k = 0 then begin
              Hashtbl.replace cold_texts (c.name, s) j.text;
              cold := (c, j) :: !cold
            end;
            jobs := j :: !jobs)
      (Workloads.shuffle order_rng items)
  done;
  let window_s = now () -. t_start in
  let cache_stats =
    match Daemon.request ~port "GET" "/cache/stats" with
    | { Daemon.status = 200; body } -> Result.to_option (Json.of_string body)
    | _ | (exception _) -> None
  in
  {
    cold = List.rev !cold;
    jobs = List.rev !jobs;
    attempted = !attempted;
    passes = warm + 1;
    window_s;
    cache_stats;
  }
