module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Instr = Lr_instr.Instr

let mixture ~rng ~num_inputs ~count =
  let third = (count + 2) / 3 in
  Array.init count (fun i ->
      let bias =
        if i < third then 0.8 else if i < 2 * third then 0.2 else 0.5
      in
      Bv.random_biased rng bias num_inputs)

let check_shapes golden candidate =
  if
    N.num_inputs golden <> N.num_inputs candidate
    || N.num_outputs golden <> N.num_outputs candidate
  then invalid_arg "Eval: golden and candidate shapes differ"

let accuracy_on ~patterns ~golden ~candidate () =
  check_shapes golden candidate;
  Instr.span ~name:"eval.accuracy" @@ fun () ->
  Instr.count "eval.patterns" (Array.length patterns);
  let want = N.eval_many golden patterns in
  let got = N.eval_many candidate patterns in
  let hits = ref 0 in
  Array.iteri (fun i w -> if Bv.equal w got.(i) then incr hits) want;
  Float.of_int !hits /. Float.of_int (max 1 (Array.length patterns))

let accuracy ?(count = 30_000) ~rng ~golden ~candidate () =
  let patterns = mixture ~rng ~num_inputs:(N.num_inputs golden) ~count in
  accuracy_on ~patterns ~golden ~candidate ()

type stats = { mean : float; std : float; lo95 : float; hi95 : float; runs : int }

let accuracy_stats ?(runs = 5) ?(count = 10_000) ~rng ~golden ~candidate () =
  if runs < 2 then invalid_arg "Eval.accuracy_stats: need at least 2 runs";
  let samples =
    List.init runs (fun _ ->
        accuracy ~count ~rng:(Rng.split rng) ~golden ~candidate ())
  in
  let n = Float.of_int runs in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
    /. (n -. 1.0)
  in
  let std = Float.sqrt var in
  let half = 1.96 *. std /. Float.sqrt n in
  { mean; std; lo95 = mean -. half; hi95 = mean +. half; runs }

let per_output_accuracy ~patterns ~golden ~candidate =
  check_shapes golden candidate;
  let no = N.num_outputs golden in
  let want = N.eval_many golden patterns in
  let got = N.eval_many candidate patterns in
  let hits = Array.make no 0 in
  Array.iteri
    (fun i w ->
      for o = 0 to no - 1 do
        if Bv.get w o = Bv.get got.(i) o then hits.(o) <- hits.(o) + 1
      done)
    want;
  Array.map
    (fun h -> Float.of_int h /. Float.of_int (max 1 (Array.length patterns)))
    hits
