module Bv = Lr_bitvec.Bv
module N = Lr_netlist.Netlist
module Instr = Lr_instr.Instr

(* One opcode byte per node, selecting the operation. *)
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
  no : int;
  op : Bytes.t;
  arg0 : int array;
  arg1 : int array;
  sched : int array;  (* level-major evaluation order *)
  level_off : int array;  (* batch boundaries into [sched] *)
  outputs : int array;  (* node per primary output *)
}

let num_nodes t = t.nn
let num_inputs t = t.ni
let num_outputs t = t.no
let num_levels t = Array.length t.level_off - 1
let schedule t = t.sched
let level_offsets t = t.level_off
let arg0 t n = t.arg0.(n)
let arg1 t n = t.arg1.(n)

let opcode t n = Char.code (Bytes.get t.op n)
let depends_on_arg0 t n = opcode t n >= op_not
let depends_on_arg1 t n = opcode t n >= op_and

(* ---------------- construction ---------------- *)

let finish ~ni ~no ~op ~arg0 ~arg1 ~outputs =
  let nn = Bytes.length op in
  (* longest-path levels; fanins always point at earlier node ids, so one
     ascending pass suffices *)
  let level = Array.make nn 0 in
  let max_level = ref 0 in
  for n = 0 to nn - 1 do
    let c = Char.code (Bytes.get op n) in
    let l =
      if c < op_not then 0
      else if c = op_not then 1 + level.(arg0.(n))
      else 1 + max level.(arg0.(n)) level.(arg1.(n))
    in
    level.(n) <- l;
    if l > !max_level then max_level := l
  done;
  (* stable counting sort by level: batches in level order, ascending node
     id within a batch *)
  let nlevels = !max_level + 1 in
  let counts = Array.make (nlevels + 1) 0 in
  for n = 0 to nn - 1 do
    counts.(level.(n) + 1) <- counts.(level.(n) + 1) + 1
  done;
  for l = 1 to nlevels do
    counts.(l) <- counts.(l) + counts.(l - 1)
  done;
  let level_off = Array.copy counts in
  let sched = Array.make nn 0 in
  let cursor = Array.copy counts in
  for n = 0 to nn - 1 do
    sched.(cursor.(level.(n))) <- n;
    cursor.(level.(n)) <- cursor.(level.(n)) + 1
  done;
  { nn; ni; no; op; arg0; arg1; sched; level_off; outputs }

let of_netlist c =
  let nn = N.num_nodes c in
  let ni = N.num_inputs c in
  let no = N.num_outputs c in
  let op = Bytes.make nn '\000' in
  let arg0 = Array.make nn 0 in
  let arg1 = Array.make nn 0 in
  for n = 0 to nn - 1 do
    let code, a, b =
      match N.gate c n with
      | N.Const false -> op_const0, 0, 0
      | N.Const true -> op_const1, 0, 0
      | N.Input i -> op_input, i, 0
      | N.Not a -> op_not, a, 0
      | N.And2 (a, b) -> op_and, a, b
      | N.Or2 (a, b) -> op_or, a, b
      | N.Xor2 (a, b) -> op_xor, a, b
      | N.Nand2 (a, b) -> op_nand, a, b
      | N.Nor2 (a, b) -> op_nor, a, b
      | N.Xnor2 (a, b) -> op_xnor, a, b
    in
    Bytes.set op n (Char.chr code);
    arg0.(n) <- a;
    arg1.(n) <- b
  done;
  let outputs = Array.init no (N.output c) in
  finish ~ni ~no ~op ~arg0 ~arg1 ~outputs

(* ---------------- simulation ---------------- *)

let eval_into t v words =
  let sched = t.sched and op = t.op and a0 = t.arg0 and a1 = t.arg1 in
  for k = 0 to Array.length sched - 1 do
    let n = Array.unsafe_get sched k in
    let c = Char.code (Bytes.unsafe_get op n) in
    let w =
      if c < op_and then
        match c with
        | 0 -> 0L
        | 1 -> -1L
        | 2 -> Array.unsafe_get words (Array.unsafe_get a0 n)
        | _ -> Int64.lognot (Array.unsafe_get v (Array.unsafe_get a0 n))
      else begin
        let x = Array.unsafe_get v (Array.unsafe_get a0 n) in
        let y = Array.unsafe_get v (Array.unsafe_get a1 n) in
        match c with
        | 4 -> Int64.logand x y
        | 5 -> Int64.logor x y
        | 6 -> Int64.logxor x y
        | 7 -> Int64.lognot (Int64.logand x y)
        | 8 -> Int64.lognot (Int64.logor x y)
        | _ -> Int64.lognot (Int64.logxor x y)
      end
    in
    Array.unsafe_set v n w
  done

(* Several 64-pattern blocks per pass over the schedule: [v] is node-major
   with stride [width], [words] input-major with the same stride. One
   opcode dispatch then serves [width] words of work. *)
let eval_wide_into t v words ~width =
  let sched = t.sched and op = t.op and a0 = t.arg0 and a1 = t.arg1 in
  for k = 0 to Array.length sched - 1 do
    let n = Array.unsafe_get sched k in
    let code = Char.code (Bytes.unsafe_get op n) in
    let base = n * width in
    if code < op_and then
      match code with
      | 0 ->
          for w = 0 to width - 1 do
            Array.unsafe_set v (base + w) 0L
          done
      | 1 ->
          for w = 0 to width - 1 do
            Array.unsafe_set v (base + w) (-1L)
          done
      | 2 ->
          let src = Array.unsafe_get a0 n * width in
          for w = 0 to width - 1 do
            Array.unsafe_set v (base + w) (Array.unsafe_get words (src + w))
          done
      | _ ->
          let src = Array.unsafe_get a0 n * width in
          for w = 0 to width - 1 do
            Array.unsafe_set v (base + w)
              (Int64.lognot (Array.unsafe_get v (src + w)))
          done
    else begin
      let s0 = Array.unsafe_get a0 n * width in
      let s1 = Array.unsafe_get a1 n * width in
      for w = 0 to width - 1 do
        let x = Array.unsafe_get v (s0 + w) in
        let y = Array.unsafe_get v (s1 + w) in
        Array.unsafe_set v (base + w)
          (match code with
          | 4 -> Int64.logand x y
          | 5 -> Int64.logor x y
          | 6 -> Int64.logxor x y
          | 7 -> Int64.lognot (Int64.logand x y)
          | 8 -> Int64.lognot (Int64.logor x y)
          | _ -> Int64.lognot (Int64.logxor x y))
      done
    end
  done

let eval_words t words =
  if Array.length words <> t.ni then
    invalid_arg "Soa.eval_words: wrong number of input words";
  Instr.count "sim.gate-words" t.nn;
  let v = Array.make (max 1 t.nn) 0L in
  eval_into t v words;
  Array.map (fun n -> v.(n)) t.outputs

(* Up to this many 64-pattern blocks share one pass over the schedule. *)
let max_width = 8

let eval_many t patterns =
  let np = Array.length patterns in
  Instr.count "sim.patterns" np;
  let nblocks = (np + 63) / 64 in
  if nblocks > 0 then Instr.count "sim.gate-words" (t.nn * nblocks);
  let results = Array.init np (fun _ -> Bv.create t.no) in
  let v = Array.make (max 1 (t.nn * max_width)) 0L in
  let words = Array.make (max 1 (t.ni * max_width)) 0L in
  let block = ref 0 in
  while !block < nblocks do
    let width = min max_width (nblocks - !block) in
    let base_pat = !block * 64 in
    for i = 0 to t.ni - 1 do
      for w = 0 to width - 1 do
        let base = base_pat + (w * 64) in
        let cnt = min 64 (np - base) in
        let word = ref 0L in
        for k = 0 to cnt - 1 do
          if Bv.get patterns.(base + k) i then
            word := Int64.logor !word (Int64.shift_left 1L k)
        done;
        words.((i * width) + w) <- !word
      done
    done;
    eval_wide_into t v words ~width;
    for o = 0 to t.no - 1 do
      let src = t.outputs.(o) * width in
      for w = 0 to width - 1 do
        let base = base_pat + (w * 64) in
        let cnt = min 64 (np - base) in
        let word = v.(src + w) in
        for k = 0 to cnt - 1 do
          Bv.set results.(base + k) o
            (Int64.logand (Int64.shift_right_logical word k) 1L = 1L)
        done
      done
    done;
    block := !block + width
  done;
  results
