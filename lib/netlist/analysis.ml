module Bdd = Lr_bdd.Bdd

let structural_support c ~output =
  let seen = Netlist.reachable_from c [ Netlist.output c output ] in
  let acc = ref [] in
  for n = Netlist.num_nodes c - 1 downto 0 do
    if seen.(n) then
      match Netlist.gate c n with
      | Netlist.Input i -> acc := i :: !acc
      | _ -> ()
  done;
  List.sort compare !acc

let functional_support c ~output =
  let structural = structural_support c ~output in
  let k = List.length structural in
  let var_of_pi = Hashtbl.create 16 in
  List.iteri (fun j i -> Hashtbl.replace var_of_pi i j) structural;
  let man = Bdd.man ~nvars:(max 1 k) in
  let memo = Hashtbl.create 256 in
  let rec node n =
    match Hashtbl.find_opt memo n with
    | Some b -> b
    | None ->
        let b =
          match Netlist.gate c n with
          | Netlist.Const false -> Bdd.zero man
          | Netlist.Const true -> Bdd.one man
          | Netlist.Input i -> Bdd.var man (Hashtbl.find var_of_pi i)
          | Netlist.Not a -> Bdd.not_ man (node a)
          | Netlist.And2 (a, b) -> Bdd.and_ man (node a) (node b)
          | Netlist.Or2 (a, b) -> Bdd.or_ man (node a) (node b)
          | Netlist.Xor2 (a, b) -> Bdd.xor_ man (node a) (node b)
          | Netlist.Nand2 (a, b) -> Bdd.not_ man (Bdd.and_ man (node a) (node b))
          | Netlist.Nor2 (a, b) -> Bdd.not_ man (Bdd.or_ man (node a) (node b))
          | Netlist.Xnor2 (a, b) -> Bdd.not_ man (Bdd.xor_ man (node a) (node b))
        in
        Hashtbl.replace memo n b;
        b
  in
  let f = node (Netlist.output c output) in
  let structural = Array.of_list structural in
  Bdd.support man f |> List.map (fun j -> structural.(j))

let output_density ?(patterns = 65_536) ~rng c ~output =
  let ni = Netlist.num_inputs c in
  let blocks = (patterns + 63) / 64 in
  let ones = ref 0 in
  for _ = 1 to blocks do
    let words = Array.init ni (fun _ -> Lr_bitvec.Rng.bits64 rng) in
    let out = Netlist.eval_words c words in
    let w = out.(output) in
    (* popcount of the 64-bit word *)
    let rec pc w acc =
      if w = 0L then acc
      else pc (Int64.logand w (Int64.sub w 1L)) (acc + 1)
    in
    ones := !ones + pc w 0
  done;
  Float.of_int !ones /. Float.of_int (blocks * 64)
