(* The learn workloads: [Learner.learn] called in-process at jobs = 1 on
   each case in turn, round after round until the run's time is up.
   Every repeat must reproduce the first learn of its case exactly. *)

open Common
module Box = Lr_blackbox.Blackbox

type learned = {
  case : Common.case;
  report : Learner.report;  (** the case's first learn *)
  alloc_words : float;  (** words allocated by that learn *)
  times : float list;  (** wall time of every learn of the case *)
}

type result = {
  learned : learned list;  (** cases whose first learn succeeded *)
  attempted : int;
  window_s : float;  (** from the first learn's start to the last's end *)
}

let learn_one ~tr ~config ~budget (c : case) =
  let box = Box.of_netlist ~budget c.golden in
  (* start every learn from a collected heap, so one learn's garbage is
     not charged to the next *)
  Gc.full_major ();
  Spans.span tr ~owner:c.name "learn" @@ fun () ->
  let g0 = Gcstat.sample () in
  let t0 = now () in
  let r = Learner.learn ~config box in
  let dt = now () -. t0 in
  (r, dt, allocated (Gcstat.diff (Gcstat.sample ()) g0))

(* [seconds = None]: one pass. Otherwise keep going round the cases
   until [seconds] have passed; the first pass always completes so every
   case has its deterministic figures. *)
let run ~tr ~config ~budget ?seconds cases =
  let firsts = Hashtbl.create 16 and times = Hashtbl.create 16 in
  let attempted = ref 0 in
  let t_start = now () in
  let deadline = t_start +. Option.value seconds ~default:0.0 in
  let stop = ref false and pass = ref 0 in
  while not !stop do
    List.iter
      (fun (c : case) ->
        if !stop then ()
        else if !pass > 0 && now () >= deadline then stop := true
        else begin
          incr attempted;
          match learn_one ~tr ~config ~budget c with
          | exception e ->
              fail ~what:("learn " ^ c.name) ("raised " ^ Printexc.to_string e)
          | r, dt, alloc_words -> (
              Hashtbl.replace times c.name
                (dt :: Option.value (Hashtbl.find_opt times c.name) ~default:[]);
              let text = Io.write r.Learner.circuit in
              match Hashtbl.find_opt firsts c.name with
              | None ->
                  Option.iter
                    (fail ~what:("learn " ^ c.name))
                    (learn_fault c r);
                  Hashtbl.replace firsts c.name (r, text, alloc_words)
              | Some (r0, text0, _) ->
                  if text <> text0 || r.Learner.queries <> r0.Learner.queries
                  then
                    fail ~what:("learn " ^ c.name)
                      "a repeat learn differs from the first")
        end)
      cases;
    incr pass;
    if seconds = None then stop := true
  done;
  let learned =
    List.filter_map
      (fun (c : case) ->
        Option.map
          (fun (report, _, alloc_words) ->
            {
              case = c;
              report;
              alloc_words;
              times = List.rev (Hashtbl.find times c.name);
            })
          (Hashtbl.find_opt firsts c.name))
      cases
  in
  { learned; attempted = !attempted; window_s = now () -. t_start }

let wall_s r = sum (List.map (fun l -> median l.times) r.learned)
