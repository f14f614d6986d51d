module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Aig = Lr_aig.Aig
module Equiv = Lr_aig.Equiv
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module Instr = Lr_instr.Instr

exception
  Check_failed of {
    stage : string;
    output : int;
    cex : Bv.t;
    detail : string;
  }

let message ~stage ~output ~cex ~detail =
  Printf.sprintf "check failed in %s: output %d differs on input %s (%s)" stage
    output (Bv.to_string cex) detail

let () =
  Printexc.register_printer (function
    | Check_failed { stage; output; cex; detail } ->
        Some (message ~stage ~output ~cex ~detail)
    | _ -> None)

let failed ~stage ~output ~cex ~detail =
  Instr.count "check.failed" 1;
  raise (Check_failed { stage; output; cex; detail })

(* each verification runs under a span named after the pipeline pass it
   re-checks ("check:aig-opt", "check:cover-min", ...) so the profiler can
   attribute check-phase time per pass; the prefix keeps the span name
   distinct from the phase names used for query attribution *)
let staged ~stage f = Instr.span ~name:("check:" ^ stage) f

(* a counterexample pattern broadcast to all 64 simulation lanes *)
let words_of_bv ni cex =
  Array.init ni (fun i -> if Bv.get cex i then -1L else 0L)

let verify_netlists ~stage ?rng before after =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.cec" (fun () ->
      match Equiv.check ?rng before after with
      | Equiv.Equivalent -> Instr.count "check.verified" 1
      | Equiv.Counterexample cex ->
          let o1 = N.eval before cex and o2 = N.eval after cex in
          let output = ref (-1) in
          for o = Bv.length o1 - 1 downto 0 do
            if Bv.get o1 o <> Bv.get o2 o then output := o
          done;
          failed ~stage ~output:!output ~cex
            ~detail:"result differs from the step's input circuit")

let verify_aigs ~stage ?rng before after =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.cec-aig" (fun () ->
      match Equiv.check_aig ?rng before after with
      | Equiv.Equivalent -> Instr.count "check.verified" 1
      | Equiv.Counterexample cex ->
          let words = words_of_bv (Aig.num_inputs before) cex in
          let o1 = Aig.simulate before words
          and o2 = Aig.simulate after words in
          let output = ref (-1) in
          for o = Array.length o1 - 1 downto 0 do
            if Int64.logand o1.(o) 1L <> Int64.logand o2.(o) 1L then output := o
          done;
          failed ~stage ~output:!output ~cex
            ~detail:"result differs from the step's input AIG")

let verify_table ~stage ~circuit ~output ~bits ~to_full ~expected =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.table" (fun () ->
      let ni = N.num_inputs circuit in
      let size = 1 lsl bits in
      let words = Array.make (max ni 1) 0L in
      let block = ref 0 in
      while !block * 64 < size do
        let base = !block * 64 in
        let lanes = min 64 (size - base) in
        Array.fill words 0 ni 0L;
        for j = 0 to lanes - 1 do
          let a = to_full (base + j) in
          for i = 0 to ni - 1 do
            if Bv.get a i then
              words.(i) <- Int64.logor words.(i) (Int64.shift_left 1L j)
          done
        done;
        let out = N.eval_words circuit words in
        let w = out.(output) in
        for j = 0 to lanes - 1 do
          let got = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
          if got <> expected (base + j) then
            failed ~stage ~output ~cex:(to_full (base + j))
              ~detail:
                (Printf.sprintf "truth-table mismatch at index %d" (base + j))
        done;
        incr block
      done;
      Instr.count "check.verified" 1)

let verify_cover ~stage ?(rng = Rng.create 0xCEC) ~circuit ~output ~vars
    ~cover ~complemented () =
  staged ~stage @@ fun () ->
  Instr.span ~name:"check.cover" (fun () ->
      let ni = N.num_inputs circuit in
      let aig = Aig.create ~num_inputs:ni ~num_outputs:1 in
      (* PI-level import: builder folding (e.g. NOT(Not y) = y) can make
         cone leaves bypass any internal cut, so we re-express both sides
         over the primary inputs *)
      let memo = Hashtbl.create 256 in
      let rec import n =
        match Hashtbl.find_opt memo n with
        | Some l -> l
        | None ->
            let l =
              match N.gate circuit n with
              | N.Const b -> if b then Aig.lit_true else Aig.lit_false
              | N.Input i -> Aig.input_lit aig i
              | N.Not a -> Aig.not_lit (import a)
              | N.And2 (a, b) -> Aig.and_lit aig (import a) (import b)
              | N.Or2 (a, b) -> Aig.or_lit aig (import a) (import b)
              | N.Xor2 (a, b) -> Aig.xor_lit aig (import a) (import b)
              | N.Nand2 (a, b) ->
                  Aig.not_lit (Aig.and_lit aig (import a) (import b))
              | N.Nor2 (a, b) ->
                  Aig.not_lit (Aig.or_lit aig (import a) (import b))
              | N.Xnor2 (a, b) ->
                  Aig.not_lit (Aig.xor_lit aig (import a) (import b))
            in
            Hashtbl.replace memo n l;
            l
      in
      let out_lit = import (N.output circuit output) in
      let var_lits = Array.map import vars in
      let cover_lit =
        List.fold_left
          (fun acc cube ->
            let cube_lit =
              List.fold_left
                (fun acc (v, ph) ->
                  let l = var_lits.(v) in
                  Aig.and_lit aig acc (if ph then l else Aig.not_lit l))
                Aig.lit_true (Cube.literals cube)
            in
            Aig.or_lit aig acc cube_lit)
          Aig.lit_false (Cover.cubes cover)
      in
      let expected = if complemented then Aig.not_lit cover_lit else cover_lit in
      let diff = Aig.xor_lit aig out_lit expected in
      Aig.set_output aig 0 diff;
      let cex =
        match Equiv.sim_prefilter ~rng ~ni (Aig.simulate aig) with
        | Some c -> Some c
        | None -> Equiv.sat_assignment aig diff
      in
      match cex with
      | None -> Instr.count "check.verified" 1
      | Some cex ->
          failed ~stage ~output ~cex
            ~detail:"minimized cover differs from the built cone")
