module Rng = Lr_bitvec.Rng
module Sat = Lr_sat.Sat
module Instr = Lr_instr.Instr

(* Union-find over nodes with a phase bit relative to the parent.
   Roots are always the smallest node id of their class, so substituting a
   node by its root never creates a cycle. *)
module Uf = struct
  type t = { parent : int array; phase : bool array }

  let create n = { parent = Array.init n Fun.id; phase = Array.make n false }

  let rec find t n =
    if t.parent.(n) = n then n, false
    else begin
      let root, ph = find t t.parent.(n) in
      t.parent.(n) <- root;
      t.phase.(n) <- t.phase.(n) <> ph;
      root, t.phase.(n)
    end

  (* union [a] and [b] given that  a = b xor phase *)
  let union t a b phase =
    let ra, pa = find t a and rb, pb = find t b in
    if ra <> rb then begin
      let rel = pa <> pb <> phase in
      if ra < rb then begin
        t.parent.(rb) <- ra;
        t.phase.(rb) <- rel
      end
      else begin
        t.parent.(ra) <- rb;
        t.phase.(ra) <- rel
      end
    end
end

(* x <-> a /\ b, with operand literals already signed *)
let and_clauses solver x a b =
  Sat.add_clause solver [ -x; a ];
  Sat.add_clause solver [ -x; b ];
  Sat.add_clause solver [ x; -a; -b ]

(* x <-> a xor b *)
let xor_clauses solver x a b =
  Sat.add_clause solver [ -x; a; b ];
  Sat.add_clause solver [ -x; -a; -b ];
  Sat.add_clause solver [ x; -a; b ];
  Sat.add_clause solver [ x; a; -b ]

let cnf_of_aig aig solver =
  (* variable of node n is n+1; node 0 (constant false) pinned by a unit *)
  let n = Aig.num_nodes aig in
  for _ = 1 to n do
    ignore (Sat.new_var solver)
  done;
  Sat.add_clause solver [ -1 ];
  for node = Aig.num_inputs aig + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    let dim l =
      let v = Aig.lit_node l + 1 in
      if Aig.lit_phase l then -v else v
    in
    and_clauses solver (node + 1) (dim l0) (dim l1)
  done

type outcome = {
  uf : Uf.t;
  proved : int;
  refuted : int;
  sat_calls : int;
  rounds : int;
}

(* pack counterexamples into pattern blocks, 64 per block, so the
   signature length stays proportional to refinement rounds *)
let rec pack ni blocks = function
  | [] -> blocks
  | cexs ->
      let chunk, rest =
        let rec split k acc = function
          | x :: tl when k < 64 -> split (k + 1) (x :: acc) tl
          | tl -> acc, tl
        in
        split 0 [] cexs
      in
      let chunk = Array.of_list chunk in
      let blk =
        Array.init ni (fun i ->
            let w = ref 0L in
            Array.iteri
              (fun k cex ->
                if cex.(i) then w := Int64.logor !w (Int64.shift_left 1L k))
              chunk;
            !w)
      in
      pack ni (blk :: blocks) rest

let classes ~label ~words ~max_rounds ~max_sat_checks ~rng ~solver ~input_var
    ~num_nodes:n ~num_inputs:ni ~sim ~on_round =
  let uf = Uf.create (max n 1) in
  let miter_cache = Hashtbl.create 256 in
  let sat_calls = ref 0 and proved = ref 0 and refuted = ref 0 in
  (* pattern blocks: each is one word per input *)
  let blocks = ref [] in
  for _ = 1 to words do
    blocks := Array.init ni (fun _ -> Rng.bits64 rng) :: !blocks
  done;
  let refuted_pairs = Hashtbl.create 256 in
  let prove_equal a b phase =
    (* a = b xor phase ?  check SAT of a xor (b xor phase) *)
    incr sat_calls;
    let t =
      match Hashtbl.find_opt miter_cache (a, b) with
      | Some t -> t
      | None ->
          let t = Sat.new_var solver in
          xor_clauses solver t (a + 1) (b + 1);
          Hashtbl.replace miter_cache (a, b) t;
          t
    in
    (* if phase, equality means the miter is satisfied everywhere: check
       that t can be false; if not phase, check that t can be true *)
    let assumption = if phase then -t else t in
    match Sat.solve ~assumptions:[ assumption ] solver with
    | Sat.Unsat -> `Equal
    | Sat.Sat ->
        `Counterexample
          (Array.init ni (fun i -> Sat.value solver (input_var i)))
  in
  let round = ref 0 in
  let progress = ref true in
  while !progress && !round < max_rounds && !sat_calls < max_sat_checks do
    incr round;
    progress := false;
    (* signatures over all pattern blocks *)
    let sims =
      Instr.span ~name:(label ^ ".sim") (fun () ->
          Instr.count (label ^ ".sim-words") (List.length !blocks * n);
          List.map sim !blocks)
    in
    let signature node = List.map (fun v -> v.(node)) sims in
    let canon sig_ =
      match sig_ with
      | [] -> [], false
      | w :: _ ->
          if Int64.logand w 1L = 1L then List.map Int64.lognot sig_, true
          else sig_, false
    in
    let classes = Hashtbl.create 1024 in
    for node = 0 to n - 1 do
      let root, _ = Uf.find uf node in
      if root = node then begin
        let key, _ = canon (signature node) in
        let existing =
          match Hashtbl.find_opt classes key with Some l -> l | None -> []
        in
        Hashtbl.replace classes key (node :: existing)
      end
    done;
    (* deterministic order: candidate classes (two or more members)
       sorted by their smallest member *)
    let candidates =
      Hashtbl.fold
        (fun _ members acc ->
          match members with [ _ ] -> acc | _ -> List.rev members :: acc)
        classes []
      |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
    in
    let new_cexs = ref [] in
    let calls0 = !sat_calls and proved0 = !proved and refuted0 = !refuted in
    Instr.span ~name:(label ^ ".sat") (fun () ->
        List.iter
          (function
            | [] -> ()
            | rep :: rest ->
                List.iter
                  (fun m ->
                    if
                      !sat_calls < max_sat_checks
                      && not (Hashtbl.mem refuted_pairs (rep, m))
                    then begin
                      let _, prep = canon (signature rep) in
                      let _, pm = canon (signature m) in
                      let phase = prep <> pm in
                      match prove_equal rep m phase with
                      | `Equal ->
                          Uf.union uf rep m phase;
                          incr proved;
                          progress := true
                      | `Counterexample cex ->
                          Hashtbl.replace refuted_pairs (rep, m) ();
                          incr refuted;
                          new_cexs := cex :: !new_cexs
                    end)
                  rest)
          candidates);
    Instr.count (label ^ ".sat-calls") (!sat_calls - calls0);
    Instr.count (label ^ ".proved") (!proved - proved0);
    Instr.count (label ^ ".refuted") (!refuted - refuted0);
    on_round ~classes:(Hashtbl.length classes);
    (* counterexamples become new simulation patterns *)
    if !new_cexs <> [] then begin
      blocks := pack ni !blocks !new_cexs;
      progress := true
    end
  done;
  Instr.count (label ^ ".rounds") !round;
  {
    uf;
    proved = !proved;
    refuted = !refuted;
    sat_calls = !sat_calls;
    rounds = !round;
  }

let sweep ?(words = 16) ?(max_rounds = 64) ?(max_sat_checks = 5000)
    ?kernel:_ ~rng aig =
  let n = Aig.num_nodes aig in
  let ni = Aig.num_inputs aig in
  let solver = Sat.create () in
  cnf_of_aig aig solver;
  (* fraig's own per-round counters: class count and solver effort *)
  let conflicts = ref (Sat.stats_conflicts solver)
  and restarts = ref (Sat.stats_restarts solver) in
  let on_round ~classes =
    Instr.count "fraig.classes" classes;
    let c = Sat.stats_conflicts solver and r = Sat.stats_restarts solver in
    Instr.count "sat.conflicts" (c - !conflicts);
    Instr.count "sat.restarts" (r - !restarts);
    conflicts := c;
    restarts := r
  in
  let { uf; _ } =
    classes ~label:"fraig" ~words ~max_rounds ~max_sat_checks ~rng ~solver
      ~input_var:(fun i -> Aig.lit_node (Aig.input_lit aig i) + 1)
      ~num_nodes:n ~num_inputs:ni ~sim:(Aig.simulate_nodes aig) ~on_round
  in
  (* rebuild with the proven substitutions *)
  Instr.span ~name:"fraig.rebuild" @@ fun () ->
  let out = Aig.create ~num_inputs:ni ~num_outputs:(Aig.num_outputs aig) in
  let map = Array.make n Aig.lit_false in
  for i = 0 to ni - 1 do
    map.(1 + i) <- Aig.input_lit out i
  done;
  (* fanins precede their node, so their entries are already resolved *)
  let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
  for node = ni + 1 to n - 1 do
    let root, ph = Uf.find uf node in
    if root < node then map.(node) <- map.(root) lxor (if ph then 1 else 0)
    else begin
      let l0, l1 = Aig.fanins aig node in
      map.(node) <- Aig.and_lit out (map_lit l0) (map_lit l1)
    end
  done;
  for o = 0 to Aig.num_outputs aig - 1 do
    Aig.set_output out o (map_lit (Aig.output aig o))
  done;
  Aig.compact out
