module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module Instr = Lr_instr.Instr

type config = {
  node_rounds : int;
  biases : float array;
  leaf_epsilon : float;
  max_nodes : int;
}

let default_config =
  {
    node_rounds = 60;
    biases = Lr_sampling.Pattern_sampling.default_biases;
    leaf_epsilon = 0.0;
    max_nodes = 100_000;
  }

type tree =
  | Leaf of { cube : Cube.t; value : bool; approximate : bool }
  | Split of { cube : Cube.t; var : int; low : tree; high : tree }

let rec tree_depth = function
  | Leaf _ -> 0
  | Split { low; high; _ } -> 1 + max (tree_depth low) (tree_depth high)

let rec tree_leaves = function
  | Leaf _ -> 1
  | Split { low; high; _ } -> tree_leaves low + tree_leaves high

let rec classify t a =
  match t with
  | Leaf { value; _ } -> value
  | Split { var; low; high; _ } ->
      if Bv.get a var then classify high a else classify low a

let tree_to_dot ?(graph_name = "fbdt") ~names t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph %s {\n" graph_name;
  let counter = ref 0 in
  let rec go t =
    let id = !counter in
    incr counter;
    (match t with
    | Leaf { value; approximate; _ } ->
        add "  n%d [label=\"%d\", shape=box%s];\n" id
          (if value then 1 else 0)
          (if approximate then ", style=dashed" else "")
    | Split { var; low; high; _ } ->
        add "  n%d [label=\"%s\", shape=circle];\n" id (names var);
        let l = go low in
        let h = go high in
        add "  n%d -> n%d [label=\"0\", style=dashed];\n" id l;
        add "  n%d -> n%d [label=\"1\"];\n" id h);
    id
  in
  ignore (go t);
  add "}\n";
  Buffer.contents buf

type result = {
  onset : Lr_cube.Cover.t;
  offset : Lr_cube.Cover.t;
  truth_ratio : float;
  complete : bool;
  nodes_expanded : int;
  tree : tree option;
  table : bool array option;
}

let query1 (oracle : Oracle.Words.t) words ~lanes =
  (oracle.Oracle.Words.query ~n:lanes [| words |]).(0)

(* Constrained pattern sampling at one tree node: returns per-variable
   dependency counts over [free] and the truth ratio, from
   [rounds * (|free| + 1)] oracle queries. The toggle statistics mirror
   Algorithm 1 with the shared-base-batch optimisation: toggling input
   [i] in every lane is complementing its word, and the lanes where the
   output moved are the set bits of [base_out xor out]. *)
let sample_node cfg ~rng (oracle : Oracle.Words.t) cube free =
  let n = oracle.Oracle.Words.arity in
  let nfree = Array.length free in
  let rounds = cfg.node_rounds in
  let dependency = Array.make n 0 in
  let ones = ref 0 and total = ref 0 in
  let done_rounds = ref 0 in
  while !done_rounds < rounds do
    let blk = min 64 (rounds - !done_rounds) in
    let bias = cfg.biases.(!done_rounds / 8 mod Array.length cfg.biases) in
    let words =
      Lr_sampling.Pattern_sampling.draw_block ~rng cube ~lanes:blk bias
    in
    let live = Bv.lane_mask blk in
    let base_out = Int64.logand live (query1 oracle words ~lanes:blk) in
    ones := !ones + Bv.popcount64 base_out;
    total := !total + blk;
    for fi = 0 to nfree - 1 do
      let i = free.(fi) in
      let w = words.(i) in
      words.(i) <- Int64.lognot w;
      let out = Int64.logand live (query1 oracle words ~lanes:blk) in
      words.(i) <- w;
      ones := !ones + Bv.popcount64 out;
      dependency.(i) <-
        dependency.(i) + Bv.popcount64 (Int64.logxor out base_out);
      total := !total + blk
    done;
    done_rounds := !done_rounds + blk
  done;
  let ratio =
    if !total = 0 then 0.0 else Float.of_int !ones /. Float.of_int !total
  in
  dependency, ratio

(* mutable construction cells: the levelized (FIFO) exploration assigns
   each cell's content when it is popped; parents hold their children *)
type cell = { ccube : Cube.t; mutable content : content }

and content =
  | Pending
  | Cleaf of bool * bool (* value, approximate *)
  | Csplit of int * cell * cell

let rec freeze cell =
  match cell.content with
  | Pending ->
      (* unreachable: every queued cell is resolved before the loop ends *)
      assert false
  | Cleaf (value, approximate) -> Leaf { cube = cell.ccube; value; approximate }
  | Csplit (var, low, high) ->
      Split { cube = cell.ccube; var; low = freeze low; high = freeze high }

let learn_words ?support cfg ~rng (oracle : Oracle.Words.t) =
  let n = oracle.Oracle.Words.arity in
  let support =
    match support with Some s -> s | None -> List.init n Fun.id
  in
  let onset = ref [] and offset = ref [] in
  let complete = ref true in
  let expanded = ref 0 in
  let queue = Queue.create () in
  let root = { ccube = Cube.top n; content = Pending } in
  Queue.add root queue;
  let root_ratio = ref None in
  while not (Queue.is_empty queue) do
    let cell = Queue.pop queue in
    let cube = cell.ccube in
    incr expanded;
    let free =
      support
      |> List.filter (fun v -> not (Cube.has_var cube v))
      |> Array.of_list
    in
    let leaf value approximate =
      cell.content <- Cleaf (value, approximate);
      if approximate then complete := false;
      if value then onset := cube :: !onset else offset := cube :: !offset
    in
    let budget_spent =
      oracle.Oracle.Words.exhausted () || !expanded > cfg.max_nodes
    in
    if budget_spent then begin
      (* Algorithm 2, TimeLimit branch: approximate by majority. A cheap
         majority estimate is enough — sample without toggling. *)
      let probes =
        Array.init 32 (fun _ ->
            let a = Bv.random rng n in
            Cube.force cube a;
            a)
      in
      let words = Bv.columns n probes ~pos:0 ~lanes:32 in
      let out = query1 oracle words ~lanes:32 in
      let ones = Bv.popcount64 (Int64.logand (Bv.lane_mask 32) out) in
      leaf (2 * ones > 32) true
    end
    else begin
      let dependency, ratio = sample_node cfg ~rng oracle cube free in
      if !root_ratio = None then root_ratio := Some ratio;
      let eps = cfg.leaf_epsilon in
      if ratio >= 1.0 -. eps then leaf true false
      else if ratio <= eps then leaf false false
      else begin
        (* most significant free input *)
        let best = ref (-1) and best_count = ref 0 in
        Array.iter
          (fun i ->
            if dependency.(i) > !best_count then begin
              best := i;
              best_count := dependency.(i)
            end)
          free;
        if !best < 0 then
          (* no free input toggles the output, yet it is not constant:
             support was under-approximated here; classify by majority *)
          leaf (ratio > 0.5) true
        else begin
          let low = { ccube = Cube.add cube !best false; content = Pending } in
          let high = { ccube = Cube.add cube !best true; content = Pending } in
          cell.content <- Csplit (!best, low, high);
          Queue.add low queue;
          Queue.add high queue
        end
      end
    end
  done;
  Instr.count "fbdt.nodes" !expanded;
  Instr.count "fbdt.cubes" (List.length !onset + List.length !offset);
  {
    onset = Cover.of_cubes n !onset;
    offset = Cover.of_cubes n !offset;
    truth_ratio = (match !root_ratio with Some r -> r | None -> 0.0);
    complete = !complete;
    nodes_expanded = !expanded;
    tree = Some (freeze root);
    table = None;
  }

let learn ?support cfg ~rng oracle =
  learn_words ?support cfg ~rng (Oracle.to_words oracle)

(* Support input [j]'s word in the block of minterms [64b .. 64b + 63]:
   bit [j] of the minterm index. Below 6 it varies within the block (the
   classic truth-table column constants); from 6 up it is bit [j - 6] of
   [b], the same in every lane. *)
let minterm_column j b =
  match j with
  | 0 -> 0xAAAAAAAAAAAAAAAAL
  | 1 -> 0xCCCCCCCCCCCCCCCCL
  | 2 -> 0xF0F0F0F0F0F0F0F0L
  | 3 -> 0xFF00FF00FF00FF00L
  | 4 -> 0xFFFF0000FFFF0000L
  | 5 -> 0xFFFFFFFF00000000L
  | _ -> if (b lsr (j - 6)) land 1 = 1 then -1L else 0L

let learn_exhaustive_words ~rng:_ ~support (oracle : Oracle.Words.t) =
  let k = List.length support in
  if k > 20 then invalid_arg "Fbdt.learn_exhaustive: support too large";
  let n = oracle.Oracle.Words.arity in
  let support = Array.of_list support in
  let total = 1 lsl k in
  (* every minterm in one batch, inputs outside the support pinned to 0 *)
  let blocks =
    Array.init ((total + 63) / 64) (fun b ->
        let words = Array.make n 0L in
        Array.iteri (fun j v -> words.(v) <- minterm_column j b) support;
        words)
  in
  let out = oracle.Oracle.Words.query ~n:total blocks in
  let table =
    Array.init total (fun m ->
        Int64.logand (Int64.shift_right_logical out.(m lsr 6) (m land 63)) 1L
        = 1L)
  in
  let cube = Cube.of_minterm n support in
  let onset = ref [] and offset = ref [] in
  let ones = ref 0 in
  Array.iteri
    (fun m b ->
      if b then begin
        incr ones;
        onset := cube m :: !onset
      end
      else offset := cube m :: !offset)
    table;
  Instr.count "fbdt.nodes" total;
  Instr.count "fbdt.cubes" total;
  {
    onset = Cover.of_cubes n !onset;
    offset = Cover.of_cubes n !offset;
    truth_ratio = Float.of_int !ones /. Float.of_int total;
    complete = true;
    nodes_expanded = total;
    tree = None;
    table = Some table;
  }

let learn_exhaustive ~rng ~support oracle =
  learn_exhaustive_words ~rng ~support (Oracle.to_words oracle)
