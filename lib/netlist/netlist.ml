module Bv = Lr_bitvec.Bv
module Instr = Lr_instr.Instr

type node = int

type gate =
  | Const of bool
  | Input of int
  | Not of node
  | And2 of node * node
  | Or2 of node * node
  | Xor2 of node * node
  | Nand2 of node * node
  | Nor2 of node * node
  | Xnor2 of node * node

type t = {
  input_names : string array;
  output_names : string array;
  mutable gates : gate array;
  mutable len : int;
  strash : (gate, node) Hashtbl.t;
  outputs : node array;
}

let num_nodes t = t.len

let grow t =
  let cap = Array.length t.gates in
  if t.len = cap then begin
    let gates = Array.make (max 16 (2 * cap)) (Const false) in
    Array.blit t.gates 0 gates 0 t.len;
    t.gates <- gates
  end

let push_raw t g =
  grow t;
  t.gates.(t.len) <- g;
  t.len <- t.len + 1;
  t.len - 1

let gate t n =
  if n < 0 || n >= t.len then invalid_arg "Netlist.gate: bad node";
  t.gates.(n)

let create ~input_names ~output_names =
  let t =
    {
      input_names;
      output_names;
      gates = Array.make 16 (Const false);
      len = 0;
      strash = Hashtbl.create 1024;
      outputs = Array.make (Array.length output_names) 0;
    }
  in
  let f = push_raw t (Const false) in
  ignore (push_raw t (Const true));
  Array.iteri (fun i _ -> ignore (push_raw t (Input i))) input_names;
  Array.fill t.outputs 0 (Array.length t.outputs) f;
  t

let num_inputs t = Array.length t.input_names
let num_outputs t = Array.length t.output_names
let input_names t = t.input_names
let output_names t = t.output_names

let const_false _ = 0
let const_true _ = 1

let input t i =
  if i < 0 || i >= num_inputs t then invalid_arg "Netlist.input: bad index";
  2 + i

let hashed t g =
  match Hashtbl.find_opt t.strash g with
  | Some n -> n
  | None ->
      let n = push_raw t g in
      Hashtbl.replace t.strash g n;
      n

let const _t b = if b then 1 else 0

let not_ t a =
  match gate t a with
  | Const b -> const t (not b)
  | Not x -> x
  | Input _ | And2 _ | Or2 _ | Xor2 _ | Nand2 _ | Nor2 _ | Xnor2 _ ->
      hashed t (Not a)

(* A complemented pair (x, ~x) is recognised when one operand is literally
   the inverter of the other; strashing makes this test reliable enough for
   the simplifications below. *)
let complements t a b =
  match gate t a, gate t b with
  | Not x, _ -> x = b
  | _, Not y -> y = a
  | _ -> false

let order a b = if a <= b then a, b else b, a

let and_ t a b =
  let a, b = order a b in
  match gate t a, gate t b with
  | Const false, _ | _, Const false -> 0
  | Const true, _ -> b
  | _, Const true -> a
  | _ ->
      if a = b then a
      else if complements t a b then 0
      else hashed t (And2 (a, b))

let or_ t a b =
  let a, b = order a b in
  match gate t a, gate t b with
  | Const true, _ | _, Const true -> 1
  | Const false, _ -> b
  | _, Const false -> a
  | _ ->
      if a = b then a
      else if complements t a b then 1
      else hashed t (Or2 (a, b))

let xor_ t a b =
  let a, b = order a b in
  match gate t a, gate t b with
  | Const false, _ -> b
  | _, Const false -> a
  | Const true, _ -> not_ t b
  | _, Const true -> not_ t a
  | _ ->
      if a = b then 0
      else if complements t a b then 1
      else hashed t (Xor2 (a, b))

let nand_ t a b =
  let a, b = order a b in
  match gate t a, gate t b with
  | Const false, _ | _, Const false -> 1
  | Const true, _ -> not_ t b
  | _, Const true -> not_ t a
  | _ ->
      if a = b then not_ t a
      else if complements t a b then 1
      else hashed t (Nand2 (a, b))

let nor_ t a b =
  let a, b = order a b in
  match gate t a, gate t b with
  | Const true, _ | _, Const true -> 0
  | Const false, _ -> not_ t b
  | _, Const false -> not_ t a
  | _ ->
      if a = b then not_ t a
      else if complements t a b then 0
      else hashed t (Nor2 (a, b))

let xnor_ t a b =
  let a, b = order a b in
  match gate t a, gate t b with
  | Const true, _ -> b
  | _, Const true -> a
  | Const false, _ -> not_ t b
  | _, Const false -> not_ t a
  | _ ->
      if a = b then 1
      else if complements t a b then 0
      else hashed t (Xnor2 (a, b))

let set_output t i n =
  if i < 0 || i >= num_outputs t then
    invalid_arg "Netlist.set_output: bad index";
  if n < 0 || n >= t.len then invalid_arg "Netlist.set_output: bad node";
  t.outputs.(i) <- n

let output t i =
  if i < 0 || i >= num_outputs t then invalid_arg "Netlist.output: bad index";
  t.outputs.(i)

type stats = { gates2 : int; inverters : int; depth : int }

let fanins = function
  | Const _ | Input _ -> []
  | Not a -> [ a ]
  | And2 (a, b) | Or2 (a, b) | Xor2 (a, b) | Nand2 (a, b) | Nor2 (a, b)
  | Xnor2 (a, b) ->
      [ a; b ]

let reachable_from t roots =
  let seen = Array.make t.len false in
  let rec visit n =
    if n < 0 || n >= t.len then invalid_arg "Netlist.reachable_from: bad node";
    if not seen.(n) then begin
      seen.(n) <- true;
      List.iter visit (fanins t.gates.(n))
    end
  in
  List.iter visit roots;
  seen

let reachable t = reachable_from t (Array.to_list t.outputs)

let fanout_counts t =
  let counts = Array.make t.len 0 in
  for n = 0 to t.len - 1 do
    List.iter (fun a -> counts.(a) <- counts.(a) + 1) (fanins t.gates.(n))
  done;
  Array.iter (fun o -> counts.(o) <- counts.(o) + 1) t.outputs;
  counts

let stats t =
  let seen = reachable t in
  let gates2 = ref 0 and inverters = ref 0 in
  let depth = Array.make t.len 0 in
  for n = 0 to t.len - 1 do
    if seen.(n) then begin
      (match t.gates.(n) with
      | Const _ | Input _ -> ()
      | Not a -> depth.(n) <- depth.(a)
      | And2 (a, b) | Or2 (a, b) | Xor2 (a, b) | Nand2 (a, b) | Nor2 (a, b)
      | Xnor2 (a, b) ->
          depth.(n) <- 1 + max depth.(a) depth.(b));
      match t.gates.(n) with
      | Not _ -> incr inverters
      | And2 _ | Or2 _ | Xor2 _ | Nand2 _ | Nor2 _ | Xnor2 _ -> incr gates2
      | Const _ | Input _ -> ()
    end
  done;
  let d = Array.fold_left (fun acc o -> max acc depth.(o)) 0 t.outputs in
  { gates2 = !gates2; inverters = !inverters; depth = d }

let size t = (stats t).gates2

(* the one per-gate word match: inputs keep the word already in [v] *)
let eval_nodes_from t v from =
  for n = from to t.len - 1 do
    match t.gates.(n) with
    | Const b -> v.(n) <- (if b then -1L else 0L)
    | Input _ -> ()
    | Not a -> v.(n) <- Int64.lognot v.(a)
    | And2 (a, b) -> v.(n) <- Int64.logand v.(a) v.(b)
    | Or2 (a, b) -> v.(n) <- Int64.logor v.(a) v.(b)
    | Xor2 (a, b) -> v.(n) <- Int64.logxor v.(a) v.(b)
    | Nand2 (a, b) -> v.(n) <- Int64.lognot (Int64.logand v.(a) v.(b))
    | Nor2 (a, b) -> v.(n) <- Int64.lognot (Int64.logor v.(a) v.(b))
    | Xnor2 (a, b) -> v.(n) <- Int64.lognot (Int64.logxor v.(a) v.(b))
  done

let eval_nodes t words =
  if Array.length words <> num_inputs t then
    invalid_arg "Netlist.eval_nodes: wrong number of input words";
  let v = Array.make t.len 0L in
  (* PI [i] is node [2 + i] *)
  Array.blit words 0 v 2 (Array.length words);
  eval_nodes_from t v 0;
  v

let eval_words t words =
  if Array.length words <> num_inputs t then
    invalid_arg "Netlist.eval_words: wrong number of input words";
  Instr.count "sim.gate-words" t.len;
  let v = eval_nodes t words in
  Array.map (fun o -> v.(o)) t.outputs

let eval t a =
  if Bv.length a <> num_inputs t then
    invalid_arg "Netlist.eval: wrong assignment width";
  let words = Array.init (num_inputs t) (fun i -> if Bv.get a i then 1L else 0L) in
  let outs = eval_words t words in
  let r = Bv.create (num_outputs t) in
  Array.iteri (fun i w -> Bv.set r i (Int64.logand w 1L = 1L)) outs;
  r

let eval_many t patterns =
  let np = Array.length patterns in
  Instr.count "sim.patterns" np;
  let ni = num_inputs t and no = num_outputs t in
  let results = Array.init np (fun _ -> Bv.create no) in
  let words = Array.make ni 0L in
  let block = ref 0 in
  while !block * 64 < np do
    let base = !block * 64 in
    let cnt = min 64 (np - base) in
    for i = 0 to ni - 1 do
      let w = ref 0L in
      for k = 0 to cnt - 1 do
        if Bv.get patterns.(base + k) i then
          w := Int64.logor !w (Int64.shift_left 1L k)
      done;
      words.(i) <- !w
    done;
    let outs = eval_words t words in
    for k = 0 to cnt - 1 do
      for o = 0 to no - 1 do
        Bv.set results.(base + k) o
          (Int64.logand (Int64.shift_right_logical outs.(o) k) 1L = 1L)
      done
    done;
    incr block
  done;
  results
