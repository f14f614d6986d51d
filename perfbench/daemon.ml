(* Driving the real lr_serve daemon: spawn it on an ephemeral loopback
   port, talk HTTP/1.1 to it one connection at a time, shut it down and
   read the GC statistics the OCaml runtime prints at exit. *)

type reply = { status : int; body : string }

exception Http_error of string

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
  in
  loop ();
  Buffer.contents buf

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go from

let dechunk s =
  let buf = Buffer.create (String.length s) in
  let rec go pos =
    let eol = find_sub s "\r\n" pos in
    if eol < 0 then raise (Http_error "truncated chunk header");
    let size =
      match int_of_string_opt ("0x" ^ String.trim (String.sub s pos (eol - pos)))
      with
      | Some n -> n
      | None -> raise (Http_error "bad chunk size")
    in
    if size > 0 then begin
      if eol + 2 + size > String.length s then
        raise (Http_error "truncated chunk");
      Buffer.add_string buf (String.sub s (eol + 2) size);
      go (eol + 2 + size + 2)
    end
  in
  go 0;
  Buffer.contents buf

let parse_reply raw =
  let head_end = find_sub raw "\r\n\r\n" 0 in
  if head_end < 0 then raise (Http_error "no header terminator");
  let head = String.sub raw 0 head_end in
  let body =
    String.sub raw (head_end + 4) (String.length raw - head_end - 4)
  in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> raise (Http_error "bad status line"))
    | _ -> raise (Http_error "bad status line")
  in
  let chunked =
    find_sub (String.lowercase_ascii head) "transfer-encoding: chunked" 0 >= 0
  in
  { status; body = (if chunked then dechunk body else body) }

(* One request on a fresh connection; the daemon closes it after the
   reply (or, for a progress tail, after the last chunk). *)
let request ~port ?(body = "") meth path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd
        (Printf.sprintf
           "%s %s HTTP/1.1\r\n\
            Host: 127.0.0.1\r\n\
            Connection: close\r\n\
            Content-Type: application/json\r\n\
            Content-Length: %d\r\n\
            \r\n\
            %s"
           meth path (String.length body) body);
      parse_reply (read_all fd))

type t = {
  pid : int;
  port : int;
  err_file : string;
  port_file : string;
  mutable reaped : bool;
}

let read_file f = In_channel.with_open_bin f In_channel.input_all
let remove f = try Sys.remove f with Sys_error _ -> ()

(* The child inherits our environment, with OCAMLRUNPARAM=v=0x400 so the
   runtime reports the daemon's allocation and peak heap at exit. *)
let child_env () =
  Array.append
    [| "OCAMLRUNPARAM=v=0x400" |]
    (Array.of_list
       (List.filter
          (fun kv ->
            not (String.length kv >= 14 && String.sub kv 0 14 = "OCAMLRUNPARAM="))
          (Array.to_list (Unix.environment ()))))

let spawn_count = ref 0

(* Daemons not yet stopped, so an early exit still stops them. *)
let live = ref []

(* Start the daemon and wait for its first 200 from /healthz. Returns
   the daemon and the seconds from spawn to that reply. *)
let spawn ~exe ~dir =
  incr spawn_count;
  let stem =
    Filename.concat dir
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !spawn_count)
  in
  let port_file = stem ^ ".port" and err_file = stem ^ ".err" in
  remove port_file;
  let t0 = Unix.gettimeofday () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close err)
      (fun () ->
        Unix.create_process_env exe
          [|
            exe;
            "--listen";
            "0";
            "--slots";
            "1";
            "--port-file";
            port_file;
            "--log-level";
            "error";
          |]
          (child_env ()) devnull devnull err)
  in
  let kill () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let deadline = t0 +. 30.0 in
  let rec wait_port () =
    let port =
      match read_file port_file with
      | s when String.length s > 0 && s.[String.length s - 1] = '\n' ->
          int_of_string_opt (String.trim s)
      | _ | (exception Sys_error _) -> None
    in
    match port with
    | Some p -> p
    | None ->
        if Unix.gettimeofday () > deadline then begin
          kill ();
          failwith "lr_serve did not report a port"
        end;
        Unix.sleepf 0.0005;
        wait_port ()
  in
  let port = wait_port () in
  let rec wait_health () =
    match request ~port "GET" "/healthz" with
    | { status = 200; _ } -> ()
    | _ | (exception Unix.Unix_error _) | (exception Http_error _) ->
        if Unix.gettimeofday () > deadline then begin
          kill ();
          failwith "lr_serve never answered /healthz"
        end;
        Unix.sleepf 0.0005;
        wait_health ()
  in
  wait_health ();
  let setup_s = Unix.gettimeofday () -. t0 in
  let t = { pid; port; err_file; port_file; reaped = false } in
  live := t :: !live;
  (t, setup_s)

type exit_stats = { allocated_words : float; top_heap_words : float }

let stat_line text key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
          float_of_string_opt
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' text)

(* POST /shutdown, wait for the exit, and parse the runtime's exit
   statistics from the daemon's stderr. *)
let stop t =
  if t.reaped then None
  else begin
    t.reaped <- true;
    (try ignore (request ~port:t.port ~body:"" "POST" "/shutdown")
     with Unix.Unix_error _ | Http_error _ -> ());
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] t.pid)
          end
          else begin
            Unix.sleepf 0.002;
            reap ()
          end
      | _ -> ()
    in
    reap ();
    let text = try read_file t.err_file with Sys_error _ -> "" in
    remove t.err_file;
    remove t.port_file;
    match
      (stat_line text "allocated_words", stat_line text "top_heap_words")
    with
    | Some a, Some h -> Some { allocated_words = a; top_heap_words = h }
    | _ -> None
  end

let stop_all () = List.iter (fun t -> ignore (stop t)) !live
