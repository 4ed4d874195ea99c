(* Blocking protocol client. See client.mli. *)

type t = {
  fd : Unix.file_descr;
  decoder : Frame.Decoder.t;
  mutable inbox : Msg.response list; (* decoded, undelivered; oldest first *)
  buf : Bytes.t;
}

let connect (listen : Server.listen) =
  let fd, addr =
    match listen with
    | `Unix path ->
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
      let inet = (Unix.gethostbyname host).Unix.h_addr_list.(0) in
      (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (inet, port))
  in
  Unix.connect fd addr;
  {
    fd;
    decoder = Frame.Decoder.create ();
    inbox = [];
    buf = Bytes.create 65536;
  }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let len = String.length s in
  let b = Bytes.of_string s in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let send t req = write_all t.fd (Frame.encode (Msg.encode_request req))

let decode_event = function
  | Frame.Decoder.Frame payload -> (
    match Msg.response_of_string payload with
    | Ok resp -> resp
    | Error (code, msg) ->
      failwith (Printf.sprintf "undecodable response (%s): %s" code msg))
  | Frame.Decoder.Oversized n ->
    failwith (Printf.sprintf "oversized response frame (%d bytes)" n)
  | Frame.Decoder.Corrupt msg -> failwith ("corrupt response stream: " ^ msg)

let rec fill t =
  match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> failwith "server closed the connection"
  | n ->
    let events = Frame.Decoder.feed t.decoder t.buf 0 n in
    t.inbox <- t.inbox @ List.map decode_event events;
    if t.inbox = [] then fill t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill t

let recv t =
  if t.inbox = [] then fill t;
  match t.inbox with
  | r :: rest ->
    t.inbox <- rest;
    r
  | [] -> assert false

(* Wait for the first response satisfying [want]; anything else goes
   through [other] (which may stash it for later delivery). *)
let rec recv_where t want other =
  let r = recv t in
  match want r with
  | Some v -> v
  | None ->
    other r;
    recv_where t want other

let submit_wait ?(on_progress = fun ~phase:_ ~seq:_ -> ()) t spec =
  send t (Msg.Submit spec);
  let deferred = ref [] in
  let stash r = deferred := r :: !deferred in
  let admitted =
    recv_where t
      (function
        | Msg.Submitted { id; _ } -> Some (Ok id)
        | Msg.Error_reply { code; message } -> Some (Error (code, message))
        | _ -> None)
      stash
  in
  let outcome =
    Result.map
      (fun id ->
        let result =
          recv_where t
            (function
              | Msg.Result r when r.Msg.id = id -> Some r
              | _ -> None)
            (function
              | Msg.Progress { id = pid; phase; seq } when pid = id ->
                on_progress ~phase ~seq
              | r -> stash r)
        in
        (id, result))
      admitted
  in
  t.inbox <- List.rev !deferred @ t.inbox;
  outcome

(* One request whose reply [want] recognizes; an [Error_reply] is the
   server's refusal, returned as a value. Responses for other jobs are
   stashed for later delivery. *)
let request t req want =
  send t req;
  let deferred = ref [] in
  let reply =
    recv_where t
      (function
        | Msg.Error_reply { code; message } -> Some (Error (code, message))
        | r -> Option.map Result.ok (want r))
      (fun r -> deferred := r :: !deferred)
  in
  t.inbox <- List.rev !deferred @ t.inbox;
  reply

let stats t =
  request t Msg.Stats (function Msg.Stats_reply s -> Some s | _ -> None)

let metrics t =
  request t Msg.Metrics (function
    | Msg.Metrics_reply { text; json } -> Some (text, json)
    | _ -> None)

let job_trace t id =
  request t (Msg.Trace id) (function
    | Msg.Trace_reply { id = rid; trace } when rid = id -> Some trace
    | _ -> None)

let shutdown t =
  request t Msg.Shutdown (function Msg.Shutdown_ack -> Some () | _ -> None)
