(** The socket front end: a single-threaded [select] loop speaking the
    {!Frame}/{!Msg} protocol over a Unix-domain or TCP socket, with the
    {!Engine} doing the work on its executor domain.

    One connection = one tenant. Responses to a connection's requests,
    progress events and results of its jobs are written back on that
    connection; a disconnect cancels every job the tenant still owns
    (queued jobs immediately, the running job via
    {!Guard.Deadline.cancel} at its next cancellation point).

    A [shutdown] request drains: no new submissions are admitted,
    queued and running jobs finish and deliver, then the server closes
    every connection and returns from {!run}. *)

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  queue_capacity : int;
  max_frame : int;
  journal : string option;
      (** JSONL journal file ({!Obs.Journal}); [None] = journaling off *)
  journal_max_bytes : int;  (** file-sink rotation threshold *)
  slo : (string * float) list;
      (** per-size-class run-latency objectives, milliseconds *)
}

val default_config : listen -> config

(** Serve until a [shutdown] request completes. Binds the socket
    (unlinking a stale Unix path first), spawns the engine executor,
    and blocks. [ready] fires once the socket is listening — an
    in-process harness uses it to know when to connect. *)
val run : ?ready:(unit -> unit) -> config -> unit
