(* Socket front end. See server.mli.

   Threading: this loop owns every connection structure; the engine's
   executor (and, for progress events, any Par worker) only touches the
   [outbox] — a mutex-protected list of (tenant, response) pairs — and
   then pokes the self-pipe so a blocked [select] wakes up and flushes.
   That keeps all socket I/O single-threaded with no locks on the hot
   read path. *)

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  queue_capacity : int;
  max_frame : int;
  journal : string option;
  journal_max_bytes : int;
  slo : (string * float) list;
}

let default_config listen =
  {
    listen;
    queue_capacity = 256;
    max_frame = Frame.max_frame_default;
    journal = None;
    journal_max_bytes = 8 * 1024 * 1024;
    slo = [];
  }

type conn = {
  fd : Unix.file_descr;
  tenant : int;
  decoder : Frame.Decoder.t;
  outbuf : Buffer.t;
  mutable out_off : int; (* bytes of [outbuf] already written *)
  mutable alive : bool;
}

type state = {
  config : config;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;
  mutable next_tenant : int;
  outbox_lock : Mutex.t;
  mutable outbox : (int * Msg.response) list; (* newest first *)
  mutable engine : Engine.t option;
  mutable draining : bool;
}

let log = Logs.Src.create "serve" ~doc:"synthesis job server"

module Log = (val Logs.src_log log)

(* --- engine -> loop hand-off ------------------------------------------ *)

let wake st =
  (* A full pipe already wakes the loop; ignore EAGAIN and races with
     shutdown. *)
  try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let post st tenant resp =
  Mutex.lock st.outbox_lock;
  st.outbox <- (tenant, resp) :: st.outbox;
  Mutex.unlock st.outbox_lock;
  wake st

let drain_outbox st =
  Mutex.lock st.outbox_lock;
  let pending = List.rev st.outbox in
  st.outbox <- [];
  Mutex.unlock st.outbox_lock;
  pending

(* --- per-connection output -------------------------------------------- *)

let queue_response conn resp =
  Frame.write conn.outbuf (Msg.encode_response resp)

let try_flush conn =
  let len = Buffer.length conn.outbuf - conn.out_off in
  if len > 0 then begin
    let chunk = Buffer.to_bytes conn.outbuf in
    match Unix.write conn.fd chunk conn.out_off len with
    | n ->
      conn.out_off <- conn.out_off + n;
      if conn.out_off = Buffer.length conn.outbuf then begin
        Buffer.clear conn.outbuf;
        conn.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
    | exception Unix.Unix_error _ -> conn.alive <- false
  end

let has_backlog conn = Buffer.length conn.outbuf > conn.out_off

(* --- request handling -------------------------------------------------- *)

let handle_request st conn (req : Msg.request) =
  let engine = Option.get st.engine in
  match req with
  | Msg.Submit spec -> (
    match Engine.submit engine ~tenant:conn.tenant spec with
    | Ok (id, position) -> queue_response conn (Msg.Submitted { id; position })
    | Error (code, message) ->
      queue_response conn (Msg.Error_reply { code; message }))
  | Msg.Status id -> (
    match Engine.status engine id with
    | Some (state, position) ->
      queue_response conn (Msg.Job_status { id; state; position })
    | None ->
      queue_response conn
        (Msg.Error_reply
           { code = "unknown_job"; message = Printf.sprintf "no job %d" id }))
  | Msg.Cancel id -> (
    match Engine.cancel engine ~tenant:conn.tenant id with
    | Ok state ->
      queue_response conn (Msg.Job_status { id; state; position = None })
    | Error (code, message) ->
      queue_response conn (Msg.Error_reply { code; message }))
  | Msg.Stats -> queue_response conn (Msg.Stats_reply (Engine.stats engine))
  | Msg.Metrics ->
    let text, json = Engine.metrics engine in
    queue_response conn (Msg.Metrics_reply { text; json })
  | Msg.Trace id -> (
    match Engine.job_trace engine id with
    | Some trace -> queue_response conn (Msg.Trace_reply { id; trace })
    | None ->
      queue_response conn
        (Msg.Error_reply
           {
             code = "no_trace";
             message =
               Printf.sprintf
                 "no retained trace for job %d (unknown or evicted)" id;
           }))
  | Msg.Shutdown ->
    Log.info (fun m -> m "shutdown requested by tenant %d" conn.tenant);
    st.draining <- true;
    Engine.begin_shutdown engine;
    queue_response conn Msg.Shutdown_ack

let handle_frame st conn = function
  | Frame.Decoder.Frame payload -> (
    match Msg.request_of_string payload with
    | Ok req -> handle_request st conn req
    | Error (code, message) ->
      queue_response conn (Msg.Error_reply { code; message }))
  | Frame.Decoder.Oversized n ->
    queue_response conn
      (Msg.Error_reply
         {
           code = "oversized";
           message =
             Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
               st.config.max_frame;
         })
  | Frame.Decoder.Corrupt message ->
    queue_response conn (Msg.Error_reply { code = "parse"; message });
    conn.alive <- false

(* --- connection lifecycle ---------------------------------------------- *)

let accept_conn st =
  match Unix.accept st.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    let tenant = st.next_tenant in
    st.next_tenant <- tenant + 1;
    Hashtbl.replace st.conns tenant
      {
        fd;
        tenant;
        decoder = Frame.Decoder.create ~max_frame:st.config.max_frame ();
        outbuf = Buffer.create 4096;
        out_off = 0;
        alive = true;
      };
    Log.debug (fun m -> m "tenant %d connected" tenant)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let close_conn st conn =
  conn.alive <- false;
  Hashtbl.remove st.conns conn.tenant;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  (* The tenant is gone: cancel everything it still owns. The running
     job observes the cancelled deadline at its next guard check. *)
  Option.iter (fun e -> Engine.drop_tenant e conn.tenant) st.engine;
  Log.debug (fun m -> m "tenant %d disconnected" conn.tenant)

let read_buf = Bytes.create 65536

let handle_readable st conn =
  match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> close_conn st conn
  | n ->
    List.iter (handle_frame st conn) (Frame.Decoder.feed conn.decoder read_buf 0 n);
    if not conn.alive then close_conn st conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn st conn

(* --- main loop ---------------------------------------------------------- *)

let bind_listen = function
  | `Unix path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | `Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let addr = (Unix.gethostbyname host).Unix.h_addr_list.(0) in
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    fd

let run ?(ready = fun () -> ()) config =
  let listen_fd = bind_listen config.listen in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  let st =
    {
      config;
      listen_fd;
      wake_r;
      wake_w;
      conns = Hashtbl.create 16;
      next_tenant = 1;
      outbox_lock = Mutex.create ();
      outbox = [];
      engine = None;
      draining = false;
    }
  in
  (* The journal is server-lifetime state: enabled before the engine
     starts so admission events of the very first job are captured. *)
  (match config.journal with
  | Some file ->
    Obs.Journal.enable ~file ~file_max_bytes:config.journal_max_bytes ()
  | None -> ());
  let engine =
    Engine.create
      ~on_event:(fun ev ->
        match ev with
        | Engine.Job_done { tenant; result } ->
          post st tenant (Msg.Result result)
        | Engine.Job_progress { tenant; id; phase; seq } ->
          post st tenant (Msg.Progress { id; phase; seq }))
      ~slo:config.slo
      { Engine.queue_capacity = config.queue_capacity }
  in
  st.engine <- Some engine;
  Engine.start engine;
  ready ();
  let finished () =
    st.draining
    && Engine.idle engine
    && Hashtbl.fold (fun _ c acc -> acc && not (has_backlog c)) st.conns true
  in
  let drain_wake () =
    let b = Bytes.create 256 in
    let rec go () =
      match Unix.read st.wake_r b 0 256 with
      | 256 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    in
    go ()
  in
  let rec loop () =
    if finished () then ()
    else begin
      let conns = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns [] in
      let reads =
        st.wake_r :: st.listen_fd :: List.map (fun c -> c.fd) conns
      in
      let writes =
        List.filter_map
          (fun c -> if has_backlog c then Some c.fd else None)
          conns
      in
      (match Unix.select reads writes [] 1.0 with
      | rs, ws, _ ->
        if List.mem st.wake_r rs then drain_wake ();
        if List.mem st.listen_fd rs then accept_conn st;
        List.iter
          (fun c ->
            if c.alive && List.mem c.fd rs then handle_readable st c)
          conns;
        (* Engine events: route each response to its tenant's
           connection (silently dropped if the tenant vanished). *)
        List.iter
          (fun (tenant, resp) ->
            match Hashtbl.find_opt st.conns tenant with
            | Some c -> queue_response c resp
            | None -> ())
          (drain_outbox st);
        List.iter
          (fun c ->
            if c.alive && (List.mem c.fd ws || has_backlog c) then
              try_flush c)
          conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Engine.stop engine;
  if config.journal <> None then Obs.Journal.disable ();
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    st.conns;
  Unix.close st.listen_fd;
  Unix.close st.wake_r;
  Unix.close st.wake_w;
  match config.listen with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()
