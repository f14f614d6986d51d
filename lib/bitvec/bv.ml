type t = { len : int; words : int64 array }

let nwords n = (n + 63) / 64

let create n =
  if n < 0 then invalid_arg "Bv.create: negative length";
  { len = n; words = Array.make (max 1 (nwords n)) 0L }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bv: index out of bounds"

let get t i =
  check t i;
  Int64.(logand (shift_right_logical t.words.(i lsr 6) (i land 63)) 1L) = 1L

let set t i b =
  check t i;
  let w = i lsr 6 and m = Int64.shift_left 1L (i land 63) in
  t.words.(w) <-
    (if b then Int64.logor t.words.(w) m
     else Int64.logand t.words.(w) (Int64.lognot m))

let flip t i =
  check t i;
  let w = i lsr 6 in
  t.words.(w) <- Int64.logxor t.words.(w) (Int64.shift_left 1L (i land 63))

let copy t = { len = t.len; words = Array.copy t.words }

(* Bits beyond [len] in the last word are kept at zero by every mutator,
   so word-level comparison and hashing are sound. *)
let mask_last t =
  let r = t.len land 63 in
  if t.len > 0 && r <> 0 then begin
    let last = nwords t.len - 1 in
    t.words.(last) <-
      Int64.logand t.words.(last)
        (Int64.shift_right_logical (-1L) (64 - r))
  end

let fill t b =
  Array.fill t.words 0 (Array.length t.words) (if b then -1L else 0L);
  if b then mask_last t;
  if b && t.len = 0 then t.words.(0) <- 0L

let equal a b = a.len = b.len && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash t = Hashtbl.hash (t.len, t.words)

let popcount64 w =
  let w = Int64.sub w Int64.(logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    Int64.add
      Int64.(logand w 0x3333333333333333L)
      Int64.(logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = Int64.(logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL) in
  Int64.to_int (Int64.shift_right_logical (Int64.mul w 0x0101010101010101L) 56)

let popcount t = Array.fold_left (fun acc w -> acc + popcount64 w) 0 t.words

let lane_mask k =
  if k >= 64 then -1L else Int64.pred (Int64.shift_left 1L k)

let random rng n =
  let t = create n in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Rng.bits64 rng
  done;
  mask_last t;
  t

let random_biased rng p n =
  let t = create n in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Rng.biased_word rng p
  done;
  mask_last t;
  t

let of_int ~width v =
  if width < 0 || width > 62 then invalid_arg "Bv.of_int: width out of range";
  let t = create width in
  for i = 0 to width - 1 do
    if (v lsr i) land 1 = 1 then set t i true
  done;
  t

let to_int t =
  if t.len > 62 then invalid_arg "Bv.to_int: vector too wide";
  let acc = ref 0 in
  for i = t.len - 1 downto 0 do
    acc := (!acc lsl 1) lor (if get t i then 1 else 0)
  done;
  !acc

let of_string s =
  let n = String.length s in
  let t = create n in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set t (n - 1 - i) true
      | _ -> invalid_arg "Bv.of_string: expected only '0' and '1'")
    s;
  t

let to_string t =
  String.init t.len (fun i -> if get t (t.len - 1 - i) then '1' else '0')

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Word-major transposes, a word at a time so only finished words are
   stored (an [int64 array] store boxes its value). *)
let columns n pats ~pos ~lanes =
  if lanes < 0 || lanes > 64 then
    invalid_arg "Bv.columns: lanes out of [0, 64]";
  for k = pos to pos + lanes - 1 do
    if pats.(k).len <> n then invalid_arg "Bv.columns: length mismatch"
  done;
  Array.init n (fun i ->
      let wi = i lsr 6 and b = i land 63 in
      let w = ref 0L in
      for k = 0 to lanes - 1 do
        let x = Array.unsafe_get pats.(pos + k).words wi in
        w :=
          Int64.logor !w
            (Int64.shift_left
               (Int64.logand (Int64.shift_right_logical x b) 1L)
               k)
      done;
      !w)

let of_columns words ~lanes =
  let n = Array.length words in
  Array.init lanes (fun k ->
      let t = create n in
      for wi = 0 to nwords n - 1 do
        let w = ref 0L in
        for b = 0 to min 63 (n - 1 - (wi lsl 6)) do
          let x = Array.unsafe_get words ((wi lsl 6) + b) in
          w :=
            Int64.logor !w
              (Int64.shift_left
                 (Int64.logand (Int64.shift_right_logical x k) 1L)
                 b)
        done;
        t.words.(wi) <- !w
      done;
      t)

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let sub_bits t idxs =
  let out = create (List.length idxs) in
  List.iteri (fun j i -> set out j (get t i)) idxs;
  out

let blit_bits ~src ~dst idxs =
  List.iteri (fun j i -> set dst i (get src j)) idxs
