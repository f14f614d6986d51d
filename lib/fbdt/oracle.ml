module Bv = Lr_bitvec.Bv

type t = {
  arity : int;
  query : Bv.t array -> bool array;
  exhausted : unit -> bool;
}

module Words = struct
  type t = {
    arity : int;
    query : n:int -> int64 array array -> int64 array;
    exhausted : unit -> bool;
  }
end

let lanes n b = min 64 (n - (64 * b))

let to_words (o : t) =
  {
    Words.arity = o.arity;
    query =
      (fun ~n blocks ->
        let out =
          o.query
            (Array.concat
               (Array.to_list
                  (Array.mapi
                     (fun b w -> Bv.of_columns w ~lanes:(lanes n b))
                     blocks)))
        in
        Array.mapi
          (fun b _ ->
            let w = ref 0L in
            for k = 0 to lanes n b - 1 do
              if out.((64 * b) + k) then
                w := Int64.logor !w (Int64.shift_left 1L k)
            done;
            !w)
          blocks);
    exhausted = o.exhausted;
  }

let of_words (o : Words.t) =
  {
    arity = o.Words.arity;
    query =
      (fun patterns ->
        let n = Array.length patterns in
        let out =
          o.Words.query ~n
            (Array.init ((n + 63) / 64) (fun b ->
                 Bv.columns o.Words.arity patterns ~pos:(64 * b)
                   ~lanes:(lanes n b)))
        in
        Array.init n (fun j ->
            Int64.logand (Int64.shift_right_logical out.(j / 64) (j land 63)) 1L
            = 1L));
    exhausted = o.Words.exhausted;
  }

let of_fun ~arity f =
  { arity; query = Array.map f; exhausted = (fun () -> false) }
