(* The benchmark's own trace: spans recorded around calls into the
   program's public entry points, kept in memory and written out once,
   when the run ends. Nothing inside the program is instrumented.

   A span carries its name, start and end, the span that caused it, and
   the identifier of the case or job it belongs to, so a span tree can be
   cut per case. When recording is off, [span] only runs its thunk. *)

type span = {
  id : int;
  name : string;
  owner : string;  (** case name or serve job id *)
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
}

type t = {
  on : bool;
  origin : float;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
}

let create ~on =
  { on; origin = Unix.gettimeofday (); next_id = 0; stack = []; spans = [] }

let span t ~owner name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    let record () =
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; owner; parent; start; stop } :: t.spans
    in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end

(* Total seconds spent in spans called [name]. *)
let seconds t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 t.spans

let durations t name =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
       t.spans)

(* Chrome trace_event JSON (loads in Perfetto / chrome://tracing); the
   run context rides along as metadata. *)
let write t ~file ~context =
  let module J = Lr_instr.Json in
  let us x = J.Float (1e6 *. (x -. t.origin)) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("ts", us s.start);
        ("dur", J.Float (1e6 *. (s.stop -. s.start)));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            [
              ("id", J.Int s.id);
              ("parent", J.Int s.parent);
              ("owner", J.String s.owner);
            ] );
      ]
  in
  let doc =
    J.Obj
      [
        ("traceEvents", J.List (List.rev_map event t.spans));
        ("metadata", context);
      ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string doc))
