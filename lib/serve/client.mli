(** Blocking client for the {!Server} protocol: one connection, one
    tenant. Used by [lookahead_serve submit/...] and the tests; not
    thread-safe — one domain per client. *)

type t

val connect : Server.listen -> t
val close : t -> unit

(** Send one request frame. *)
val send : t -> Msg.request -> unit

(** Block until the next well-formed response arrives. Raises
    [Failure] on EOF, a corrupt frame, or an undecodable response. *)
val recv : t -> Msg.response

(** [submit_wait t spec] sends [spec] and blocks until that job's
    {!Msg.Result} arrives, feeding any of its progress events to
    [on_progress] and stashing interleaved responses for other jobs
    (they are delivered by later [recv]/[submit_wait] calls on this
    client). Returns the job id and the result, or [Error (code,
    message)] when the server refuses the submission. *)
val submit_wait :
  ?on_progress:(phase:string -> seq:int -> unit) ->
  t ->
  Msg.submit ->
  (int * Msg.result, string * string) result

(** Convenience wrappers. Each returns the server's refusal as [Error
    (code, message)], as {!submit_wait} does. *)
val stats : t -> (Msg.server_stats, string * string) result

(** Scrape the live metrics endpoint: Prometheus-style text exposition
    plus its JSON mirror. *)
val metrics : t -> (string * Obs.Json.t, string * string) result

(** Retrieve the retained Chrome-trace slice of a finished job; [Error]
    with code [no_trace] for unknown or evicted ids. *)
val job_trace : t -> int -> (Obs.Json.t, string * string) result

val shutdown : t -> (unit, string * string) result
