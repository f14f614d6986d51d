(* Shared pieces: statistics, per-case set-up, and the correctness
   oracles that decide whether an operation failed. *)

module Learner = Logic_regression.Learner
module Cases = Lr_cases.Cases
module N = Lr_netlist.Netlist
module Io = Lr_netlist.Io
module Bv = Lr_bitvec.Bv
module Eval = Lr_eval.Eval
module Equiv = Lr_aig.Equiv
module Finding = Lr_check.Finding
module Lint = Lr_check.Lint
module Gcstat = Lr_report.Gcstat

let now = Unix.gettimeofday

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Linear interpolation between closest ranks. *)
let percentile p = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let pos = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let sum = List.fold_left ( +. ) 0.0

(* Words allocated between two GC samples. *)
let allocated (d : Gcstat.t) =
  d.Gcstat.minor_words +. d.Gcstat.major_words -. d.Gcstat.promoted_words

let with_alloc f =
  let g0 = Gcstat.sample () in
  let r = f () in
  (r, Gcstat.diff (Gcstat.sample ()) g0)

(* One case as the benchmark holds it: the golden circuit (never shown
   to the program) and the seed of the hidden patterns accuracy is
   scored on. The patterns are drawn again when they are needed rather
   than kept, so they do not weigh on the heap the learner runs in. *)
type case = { name : string; spec : Cases.spec; golden : N.t; seed : int }

let patterns c =
  Eval.mixture
    ~rng:(Workloads.eval_rng ~seed:c.seed c.spec)
    ~num_inputs:c.spec.Cases.num_inputs ~count:Workloads.eval_patterns

(* Set-up is the case build and the hidden-pattern generation. *)
let setup_cases ~seed names =
  List.map
    (fun name ->
      let spec = Cases.find name in
      let c = { name; spec; golden = Cases.build spec; seed } in
      ignore (Sys.opaque_identity (patterns c));
      c)
    names

(* Set up [reps] times and keep the last set; the median is the set-up
   time reported, so work moved into set-up shows without one slow
   repetition deciding the figure. *)
let timed_setup ~reps f =
  let rec go k times last =
    if k = 0 then (Option.get last, median times)
    else
      let t0 = now () in
      let v = f () in
      go (k - 1) ((now () -. t0) :: times) (Some v)
  in
  go reps [] None

(* ---------- correctness oracles ---------- *)

let interface_matches (c : case) circuit =
  N.num_inputs circuit = N.num_inputs c.golden
  && N.num_outputs circuit = N.num_outputs c.golden
  && N.input_names circuit = N.input_names c.golden
  && N.output_names circuit = N.output_names c.golden

(* Why a learned circuit is not acceptable, or [None]. *)
let circuit_fault c circuit =
  if not (interface_matches c circuit) then Some "PI/PO interface differs"
  else
    match Finding.errors (Lint.netlist circuit) with
    | [] -> None
    | e :: _ -> Some ("lint error: " ^ Finding.to_string e)

let learn_fault c (r : Learner.report) =
  if r.Learner.degraded > 0 then
    Some (Printf.sprintf "%d outputs degraded" r.Learner.degraded)
  else if r.Learner.budget_exceeded then Some "time budget exceeded"
  else circuit_fault c r.Learner.circuit

let exact c circuit =
  match Equiv.check circuit c.golden with
  | Equiv.Equivalent -> true
  | Equiv.Counterexample _ -> false

(* The end-to-end quality figures of a learned circuit, scored by the
   benchmark from the golden circuit, never taken from the program. *)
type quality = { gates : int; accuracy : float; exact : bool }

(* Circuits are scored case by case, drawing each case's patterns once. *)
let qualities (learned : (case * N.t) list) =
  let by_case =
    List.stable_sort (fun (a, _) (b, _) -> compare a.name b.name) learned
  in
  let last = ref None in
  List.map
    (fun (c, circuit) ->
      let patterns =
        match !last with
        | Some (name, p) when name = c.name -> p
        | _ ->
            let p = patterns c in
            last := Some (c.name, p);
            p
      in
      {
        gates = N.size circuit;
        accuracy =
          100.0
          *. Eval.accuracy_on ~patterns ~golden:c.golden ~candidate:circuit ();
        exact = exact c circuit;
      })
    by_case

let failures = ref []

let fail ~what reason =
  failures := Printf.sprintf "%s: %s" what reason :: !failures;
  Printf.printf "FAILED %s: %s\n%!" what reason
