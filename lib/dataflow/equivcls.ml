module N = Lr_netlist.Netlist
module Sat = Lr_sat.Sat
module Fraig = Lr_aig.Fraig

type t = {
  repr : int array;
  proved : int;
  refuted : int;
  sat_calls : int;
  rounds : int;
}

let repr_node t n = t.repr.(n) lsr 1
let repr_phase t n = t.repr.(n) land 1 = 1

let gate_clauses solver x lit g =
  match g with
  | N.Const false -> Sat.add_clause solver [ -x ]
  | N.Const true -> Sat.add_clause solver [ x ]
  | N.Input _ -> ()
  | N.Not a ->
      Sat.add_clause solver [ -x; -lit a ];
      Sat.add_clause solver [ x; lit a ]
  | N.And2 (a, b) -> Fraig.and_clauses solver x (lit a) (lit b)
  | N.Nand2 (a, b) -> Fraig.and_clauses solver (-x) (lit a) (lit b)
  | N.Or2 (a, b) -> Fraig.and_clauses solver (-x) (-lit a) (-lit b)
  | N.Nor2 (a, b) -> Fraig.and_clauses solver x (-lit a) (-lit b)
  | N.Xor2 (a, b) -> Fraig.xor_clauses solver x (lit a) (lit b)
  | N.Xnor2 (a, b) -> Fraig.xor_clauses solver (-x) (lit a) (lit b)

let cnf_of_netlist c solver =
  let n = N.num_nodes c in
  for _ = 1 to n do
    ignore (Sat.new_var solver)
  done;
  for node = 0 to n - 1 do
    gate_clauses solver (node + 1) (fun a -> a + 1) (N.gate c node)
  done

let compute ?(words = 16) ?(max_rounds = 32) ?(max_sat_checks = 2000) ~rng c =
  let n = N.num_nodes c in
  let solver = Sat.create () in
  cnf_of_netlist c solver;
  let r =
    Fraig.classes ~label:"dataflow" ~words ~max_rounds ~max_sat_checks ~rng
      ~solver
      ~input_var:(fun i -> N.input c i + 1)
      ~num_nodes:n ~num_inputs:(N.num_inputs c) ~sim:(N.eval_nodes c)
      ~on_round:(fun ~classes:_ -> ())
  in
  let repr =
    Array.init n (fun node ->
        let root, ph = Fraig.Uf.find r.Fraig.uf node in
        (2 * root) lor if ph then 1 else 0)
  in
  {
    repr;
    proved = r.Fraig.proved;
    refuted = r.Fraig.refuted;
    sat_calls = r.Fraig.sat_calls;
    rounds = r.Fraig.rounds;
  }
