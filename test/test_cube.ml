module Bv = Lr_bitvec.Bv
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_literals () =
  let c = Cube.of_literals 5 [ (0, true); (3, false) ] in
  check_int "two literals" 2 (Cube.num_literals c);
  check "has 0" true (Cube.has_var c 0);
  check "phase 0" true (Cube.phase c 0);
  check "phase 3" false (Cube.phase c 3);
  check "no var 1" false (Cube.has_var c 1);
  Alcotest.check_raises "contradiction rejected"
    (Invalid_argument "Cube.add: contradictory literal") (fun () ->
      ignore (Cube.add c 0 false))

let test_satisfies () =
  let c = Cube.of_literals 4 [ (1, true); (2, false) ] in
  let a = Bv.of_string "0010" in
  (* bits: v0=0 v1=1 v2=0 v3=0 *)
  check "satisfying" true (Cube.satisfies c a);
  Bv.set a 2 true;
  check "violating" false (Cube.satisfies c a)

let test_force () =
  let c = Cube.of_literals 4 [ (0, true); (3, false) ] in
  let a = Bv.of_string "1010" in
  Cube.force c a;
  check "forced into cube" true (Cube.satisfies c a);
  check "untouched bit kept" true (Bv.get a 1)

let test_top_is_tautology () =
  let c = Cube.top 3 in
  check_int "no literals" 0 (Cube.num_literals c);
  check "covers anything" true (Cube.satisfies c (Bv.of_string "101"))

let test_contains () =
  let big = Cube.of_literals 4 [ (0, true) ] in
  let small = Cube.of_literals 4 [ (0, true); (2, false) ] in
  check "bigger contains smaller" true (Cube.contains big small);
  check "smaller does not contain bigger" false (Cube.contains small big)

let test_intersect () =
  let a = Cube.of_literals 4 [ (0, true) ] in
  let b = Cube.of_literals 4 [ (1, false) ] in
  (match Cube.intersect a b with
  | Some c ->
      check "meet has both" true (Cube.has_var c 0 && Cube.has_var c 1)
  | None -> Alcotest.fail "compatible cubes must intersect");
  let b' = Cube.of_literals 4 [ (0, false) ] in
  check "conflict detected" true (Cube.intersect a b' = None)

let test_merge_adjacent () =
  let a = Cube.of_string "1-1" and b = Cube.of_string "1-0" in
  (match Cube.merge_adjacent a b with
  | Some m -> check_str "adjacency law" "1--" (Cube.to_string m)
  | None -> Alcotest.fail "adjacent cubes must merge");
  let c = Cube.of_string "0-0" in
  check "distance 2 does not merge" true (Cube.merge_adjacent a c = None);
  let d = Cube.of_string "11-" in
  check "different care sets do not merge" true (Cube.merge_adjacent a d = None)

let test_pla_roundtrip () =
  let s = "1-0-1" in
  check_str "roundtrip" s (Cube.to_string (Cube.of_string s))

let test_cover_eval () =
  (* f = v1 v0' + v1' v0  (xor) over 2 vars *)
  let f = Cover.of_cubes 2 [ Cube.of_string "10"; Cube.of_string "01" ] in
  check "xor 00" false (Cover.eval f (Bv.of_string "00"));
  check "xor 01" true (Cover.eval f (Bv.of_string "01"));
  check "xor 10" true (Cover.eval f (Bv.of_string "10"));
  check "xor 11" false (Cover.eval f (Bv.of_string "11"))

let test_scc () =
  let f =
    Cover.of_cubes 3
      [ Cube.of_string "1--"; Cube.of_string "1-0"; Cube.of_string "01-" ]
  in
  let g = Cover.single_cube_containment f in
  check_int "contained cube dropped" 2 (Cover.num_cubes g)

let test_complement () =
  let f = Cover.of_cubes 2 [ Cube.of_string "1-" ] in
  let g = Cover.complement_exhaustive f in
  check "00 in complement" true (Cover.eval g (Bv.of_string "00"));
  check "10 not in complement" false (Cover.eval g (Bv.of_string "10"))

(* random cover over a small universe *)
let gen_cover n =
  QCheck.Gen.(
    let gen_cube =
      list_repeat n (oneofl [ '0'; '1'; '-' ]) >|= fun cs ->
      Cube.of_string (String.init n (fun i -> List.nth cs i))
    in
    list_size (int_range 1 6) gen_cube >|= Cover.of_cubes n)

let arb_cover n = QCheck.make (gen_cover n)

let eval_all n f =
  List.init (1 lsl n) (fun m ->
      let a = Bv.of_int ~width:n m in
      Cover.eval f a)

let prop_merge_preserves =
  QCheck.Test.make ~name:"merge_pass preserves semantics" ~count:200
    (arb_cover 5) (fun f -> eval_all 5 (Cover.merge_pass f) = eval_all 5 f)

let prop_scc_preserves =
  QCheck.Test.make ~name:"single_cube_containment preserves semantics"
    ~count:200 (arb_cover 5) (fun f ->
      eval_all 5 (Cover.single_cube_containment f) = eval_all 5 f)

let prop_complement =
  QCheck.Test.make ~name:"complement flips every minterm" ~count:50
    (arb_cover 4) (fun f ->
      let g = Cover.complement_exhaustive f in
      List.for_all2 ( <> ) (eval_all 4 f) (eval_all 4 g))

let prop_intersect_semantics =
  QCheck.Test.make ~name:"cube intersection = conjunction" ~count:300
    QCheck.(
      pair
        (make (QCheck.Gen.map Cube.of_string
                 QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return 5))))
        (make (QCheck.Gen.map Cube.of_string
                 QCheck.Gen.(string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return 5)))))
    (fun (a, b) ->
      List.for_all
        (fun m ->
          let x = Bv.of_int ~width:5 m in
          let lhs =
            match Cube.intersect a b with
            | None -> false
            | Some c -> Cube.satisfies c x
          in
          lhs = (Cube.satisfies a x && Cube.satisfies b x))
        (List.init 32 Fun.id))

(* the direct minterm constructor against the literal-by-literal one,
   on random universes, supports and minterms *)
let test_of_minterm () =
  let rng = Lr_bitvec.Rng.create 17 in
  for _ = 1 to 200 do
    let n = 1 + Lr_bitvec.Rng.int rng 150 in
    let k = Lr_bitvec.Rng.int rng (min n 20 + 1) in
    (* k distinct variables in random order *)
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Lr_bitvec.Rng.int rng (i + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    let vars = Array.sub perm 0 k in
    let mk = Cube.of_minterm n vars in
    for _ = 1 to 4 do
      let m = Lr_bitvec.Rng.int rng (1 lsl k) in
      let want =
        Cube.of_literals n
          (Array.to_list
             (Array.mapi (fun j v -> (v, (m lsr j) land 1 = 1)) vars))
      in
      let got = mk m in
      check "of_minterm equal" true (Cube.equal want got);
      check_int "of_minterm compare" 0 (Cube.compare want got);
      check_int "of_minterm hash" (Cube.hash want) (Cube.hash got);
      check_str "of_minterm PLA" (Cube.to_string want) (Cube.to_string got)
    done
  done

let tests =
  [
    Alcotest.test_case "literal construction" `Quick test_literals;
    Alcotest.test_case "satisfies" `Quick test_satisfies;
    Alcotest.test_case "force projects into cube" `Quick test_force;
    Alcotest.test_case "top cube is tautology" `Quick test_top_is_tautology;
    Alcotest.test_case "containment" `Quick test_contains;
    Alcotest.test_case "intersection" `Quick test_intersect;
    Alcotest.test_case "adjacency merging" `Quick test_merge_adjacent;
    Alcotest.test_case "PLA string roundtrip" `Quick test_pla_roundtrip;
    Alcotest.test_case "cover eval (xor)" `Quick test_cover_eval;
    Alcotest.test_case "single cube containment" `Quick test_scc;
    Alcotest.test_case "exhaustive complement" `Quick test_complement;
    QCheck_alcotest.to_alcotest prop_merge_preserves;
    QCheck_alcotest.to_alcotest prop_scc_preserves;
    QCheck_alcotest.to_alcotest prop_complement;
    QCheck_alcotest.to_alcotest prop_intersect_semantics;
    Alcotest.test_case "of_minterm == of_literals" `Quick test_of_minterm;
  ]
