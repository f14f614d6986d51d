module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Sat = Lr_sat.Sat

type verdict = Equivalent | Counterexample of Lr_bitvec.Bv.t

(* CNF of one AIG plus one literal asserted true; SAT model -> inputs *)
let sat_assignment aig lit =
  let solver = Sat.create () in
  Fraig.cnf_of_aig aig solver;
  let goal =
    let v = Aig.lit_node lit + 1 in
    if Aig.lit_phase lit then -v else v
  in
  Sat.add_clause solver [ goal ];
  match Sat.solve solver with
  | Sat.Unsat -> None
  | Sat.Sat ->
      let ni = Aig.num_inputs aig in
      let cex = Bv.create ni in
      for i = 0 to ni - 1 do
        Bv.set cex i (Sat.value solver (i + 2))
      done;
      Some cex

(* 16 words = 1024 random patterns; a set bit of a difference word yields
   the witness pattern *)
let sim_prefilter ~rng ~ni diff =
  let rec go k =
    if k = 0 then None
    else begin
      let words = Array.init ni (fun _ -> Rng.bits64 rng) in
      match Array.find_opt (fun d -> d <> 0L) (diff words) with
      | None -> go (k - 1)
      | Some d ->
          let rec find j =
            if Int64.logand (Int64.shift_right_logical d j) 1L = 1L then j
            else find (j + 1)
          in
          let bit = find 0 in
          let cex = Bv.create ni in
          for i = 0 to ni - 1 do
            Bv.set cex i
              (Int64.logand (Int64.shift_right_logical words.(i) bit) 1L = 1L)
          done;
          Some cex
    end
  in
  go 16

(* one AIG holding both sides on shared inputs: SAT on the disjunction of
   all output differences *)
let prove_miter ~ni ~no import1 import2 =
  let miter = Aig.create ~num_inputs:ni ~num_outputs:1 in
  let outs1 = import1 miter and outs2 = import2 miter in
  let diff = ref Aig.lit_false in
  for o = 0 to no - 1 do
    diff := Aig.or_lit miter !diff (Aig.xor_lit miter outs1.(o) outs2.(o))
  done;
  match sat_assignment miter !diff with
  | None -> Equivalent
  | Some cex -> Counterexample cex

let check ?(rng = Rng.create 0xCEC) c1 c2 =
  if
    N.num_inputs c1 <> N.num_inputs c2
    || N.num_outputs c1 <> N.num_outputs c2
  then invalid_arg "Equiv.check: interface mismatch";
  let ni = N.num_inputs c1 and no = N.num_outputs c1 in
  (* cheap random refutation first *)
  match
    sim_prefilter ~rng ~ni (fun words ->
        Array.map2 Int64.logxor (N.eval_words c1 words)
          (N.eval_words c2 words))
  with
  | Some cex -> Counterexample cex
  | None ->
      prove_miter ~ni ~no
        (fun m -> Aig.import_netlist m c1)
        (fun m -> Aig.import_netlist m c2)

let check_aig ?(rng = Rng.create 0xCEC) a1 a2 =
  if
    Aig.num_inputs a1 <> Aig.num_inputs a2
    || Aig.num_outputs a1 <> Aig.num_outputs a2
  then invalid_arg "Equiv.check_aig: interface mismatch";
  let ni = Aig.num_inputs a1 and no = Aig.num_outputs a1 in
  match
    sim_prefilter ~rng ~ni (fun words ->
        Array.map2 Int64.logxor (Aig.simulate a1 words)
          (Aig.simulate a2 words))
  with
  | Some cex -> Counterexample cex
  | None ->
      let import aig miter =
        let map = Array.make (Aig.num_nodes aig) Aig.lit_false in
        for i = 0 to ni - 1 do
          map.(1 + i) <- Aig.input_lit miter i
        done;
        let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
        for node = ni + 1 to Aig.num_nodes aig - 1 do
          let l0, l1 = Aig.fanins aig node in
          map.(node) <- Aig.and_lit miter (map_lit l0) (map_lit l1)
        done;
        Array.init no (fun o -> map_lit (Aig.output aig o))
      in
      prove_miter ~ni ~no (import a1) (import a2)
