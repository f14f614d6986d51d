module Bv = Lr_bitvec.Bv
module N = Lr_netlist.Netlist
module Instr = Lr_instr.Instr

(* One opcode per node, selecting the operation. *)
let op_const0 = 0
let op_const1 = 1
let op_input = 2
let op_not = 3
let op_and = 4
let op_or = 5
let op_xor = 6
let op_nand = 7
let op_nor = 8
let op_xnor = 9

type t = {
  nn : int;
  ni : int;
  (* Nodes are renumbered into slots: level-major, and inside a level
     grouped by opcode, so the program is a list of runs — slots
     [run_lo.(r) .. run_lo.(r + 1) - 1] all apply [run_op.(r)] — and the
     inner loops never dispatch. A level's nodes are independent, so any
     order inside it is topological. *)
  run_op : int array;
  run_lo : int array;  (* [runs + 1] boundaries *)
  arg0 : int array;
      (* per slot: byte offset of the first fanin's value, or the input
         index of an input slot *)
  arg1 : int array;  (* per slot: byte offset of the second fanin's value *)
  outputs : int array;  (* byte offset per primary output *)
}

(* Node values, 8 bytes per slot, read and written through the unboxed
   64-bit bytes primitives: the loops move raw int64s instead of
   allocating one box per node, which is what an [int64 array] store
   costs without flambda, and the buffer is a plain heap block. *)
type scratch = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_netlist c =
  let nn = N.num_nodes c in
  let op = Array.make nn 0 and a0 = Array.make nn 0 and a1 = Array.make nn 0 in
  let level = Array.make nn 0 in
  for n = 0 to nn - 1 do
    let code, a, b =
      match N.gate c n with
      | N.Const false -> (op_const0, 0, 0)
      | N.Const true -> (op_const1, 0, 0)
      | N.Input i -> (op_input, i, 0)
      | N.Not a -> (op_not, a, 0)
      | N.And2 (a, b) -> (op_and, a, b)
      | N.Or2 (a, b) -> (op_or, a, b)
      | N.Xor2 (a, b) -> (op_xor, a, b)
      | N.Nand2 (a, b) -> (op_nand, a, b)
      | N.Nor2 (a, b) -> (op_nor, a, b)
      | N.Xnor2 (a, b) -> (op_xnor, a, b)
    in
    op.(n) <- code;
    a0.(n) <- a;
    a1.(n) <- b;
    (* fanins point at earlier node ids, so one ascending pass levels *)
    level.(n) <-
      (if code < op_not then 0
       else if code = op_not then 1 + level.(a)
       else 1 + max level.(a) level.(b))
  done;
  (* stable counting sort on (level, opcode) *)
  let key n = (level.(n) * 10) + op.(n) in
  let nkeys = 1 + Array.fold_left max 0 (Array.init nn key) in
  let start = Array.make (nkeys + 1) 0 in
  for n = 0 to nn - 1 do
    start.(key n + 1) <- start.(key n + 1) + 1
  done;
  for k = 1 to nkeys do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let slot = Array.make nn 0 and cursor = Array.copy start in
  for n = 0 to nn - 1 do
    slot.(n) <- cursor.(key n);
    cursor.(key n) <- cursor.(key n) + 1
  done;
  let arg0 = Array.make nn 0 and arg1 = Array.make nn 0 in
  for n = 0 to nn - 1 do
    let code = op.(n) in
    arg0.(slot.(n)) <- (if code < op_not then a0.(n) else 8 * slot.(a0.(n)));
    arg1.(slot.(n)) <- (if code >= op_and then 8 * slot.(a1.(n)) else 0)
  done;
  let runs =
    List.filter (fun k -> start.(k + 1) > start.(k)) (List.init nkeys Fun.id)
  in
  {
    nn;
    ni = N.num_inputs c;
    run_op = Array.of_list (List.map (fun k -> k mod 10) runs);
    run_lo = Array.of_list (List.map (fun k -> start.(k)) runs @ [ nn ]);
    arg0;
    arg1;
    outputs = Array.init (N.num_outputs c) (fun o -> 8 * slot.(N.output c o));
  }

let scratch t : scratch = Bytes.create (8 * t.nn)

let eval_into t (v : scratch) words =
  if Array.length words <> t.ni then
    invalid_arg "Soa.eval_into: wrong number of input words";
  if Bytes.length v < 8 * t.nn then
    invalid_arg "Soa.eval_into: scratch too small";
  Instr.count "sim.gate-words" t.nn;
  let a0 = t.arg0 and a1 = t.arg1 in
  for r = 0 to Array.length t.run_op - 1 do
    let lo = Array.unsafe_get t.run_lo r
    and hi = Array.unsafe_get t.run_lo (r + 1) - 1 in
    match Array.unsafe_get t.run_op r with
    | 0 -> for i = lo to hi do set v (8 * i) 0L done
    | 1 -> for i = lo to hi do set v (8 * i) (-1L) done
    | 2 ->
        for i = lo to hi do
          set v (8 * i) (Array.unsafe_get words (Array.unsafe_get a0 i))
        done
    | 3 ->
        for i = lo to hi do
          set v (8 * i) (Int64.lognot (get v (Array.unsafe_get a0 i)))
        done
    | 4 ->
        for i = lo to hi do
          let x = get v (Array.unsafe_get a0 i)
          and y = get v (Array.unsafe_get a1 i) in
          set v (8 * i) (Int64.logand x y)
        done
    | 5 ->
        for i = lo to hi do
          let x = get v (Array.unsafe_get a0 i)
          and y = get v (Array.unsafe_get a1 i) in
          set v (8 * i) (Int64.logor x y)
        done
    | 6 ->
        for i = lo to hi do
          let x = get v (Array.unsafe_get a0 i)
          and y = get v (Array.unsafe_get a1 i) in
          set v (8 * i) (Int64.logxor x y)
        done
    | 7 ->
        for i = lo to hi do
          let x = get v (Array.unsafe_get a0 i)
          and y = get v (Array.unsafe_get a1 i) in
          set v (8 * i) (Int64.lognot (Int64.logand x y))
        done
    | 8 ->
        for i = lo to hi do
          let x = get v (Array.unsafe_get a0 i)
          and y = get v (Array.unsafe_get a1 i) in
          set v (8 * i) (Int64.lognot (Int64.logor x y))
        done
    | _ ->
        for i = lo to hi do
          let x = get v (Array.unsafe_get a0 i)
          and y = get v (Array.unsafe_get a1 i) in
          set v (8 * i) (Int64.lognot (Int64.logxor x y))
        done
  done;
  Array.map (get v) t.outputs

(* [eval_words] callers hold no scratch: each domain keeps one, grown to
   the largest circuit it has simulated, instead of allocating one per
   call. *)
let domain_scratch = Domain.DLS.new_key (fun () -> Bytes.empty)

let own_scratch t =
  let v = Domain.DLS.get domain_scratch in
  if Bytes.length v >= 8 * t.nn then v
  else begin
    let v = scratch t in
    Domain.DLS.set domain_scratch v;
    v
  end

let eval_words t words = eval_into t (own_scratch t) words

let eval_many t patterns =
  let np = Array.length patterns in
  Instr.count "sim.patterns" np;
  let v = own_scratch t in
  Array.concat
    (List.init ((np + 63) / 64) (fun b ->
         let lanes = min 64 (np - (64 * b)) in
         Bv.of_columns
           (eval_into t v (Bv.columns t.ni patterns ~pos:(64 * b) ~lanes))
           ~lanes))
