module Clock = struct
  let now_ns () = Monotonic_clock.now ()
  let now_s () = Int64.to_float (now_ns ()) *. 1e-9
end

let time f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(*                                                                    *)
(* Metrics allocate fixed slot ranges in a single flat int space; a   *)
(* sink is just an int array indexed by slot plus a trace-event list. *)
(* Slot merge semantics live in [slot_max]: a slot merges by [max]    *)
(* (gauges) or by addition (everything else).                         *)
(* ------------------------------------------------------------------ *)

type stability = Det | Sched

type kind = Kcounter | Kgauge | Khistogram

type metric = {
  m_name : string;
  m_kind : kind;
  m_stab : stability;
  m_base : int;
}

(* The one histogram layout: 64 power-of-two buckets, then count, then
   sum. An [Obs.histogram] is such a range inside a sink's slots
   ([observe_at] takes its base), a [Hist.t] is a standalone array. *)
module Hist = struct
  type t = int array

  let buckets = 64
  let slots = buckets + 2

  (* Number of binary digits of [v]: bucket 0 holds v <= 0 (and 1 holds
     exactly 1, 2 holds 2..3, ...), capped at the last bucket. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and x = ref v in
      while !x > 0 do
        b := !b + 1;
        x := !x lsr 1
      done;
      min !b (buckets - 1)
    end

  (* 2^62 - 1 = max_int: no int reaches bucket 63. *)
  let upper b = if b >= 62 then max_int else (1 lsl b) - 1

  let observe_at a base v =
    let i = base + bucket_of v in
    a.(i) <- a.(i) + 1;
    a.(base + buckets) <- a.(base + buckets) + 1;
    a.(base + buckets + 1) <- a.(base + buckets + 1) + v

  let create () = Array.make slots 0
  let observe h v = observe_at h 0 v
  let bucket h b = h.(b)
  let count h = h.(buckets)
  let sum h = h.(buckets + 1)

  (* Linear interpolation inside the bucket holding rank [q * count],
     between its inclusive bounds: the estimate stays in the bucket of
     the exact order statistic, so for values >= 1 it is within a
     factor of 2 of it. *)
  let quantile h q =
    if count h = 0 then 0.0
    else begin
      let rank = q *. float_of_int (count h) in
      let rec go b cum =
        let c = h.(b) in
        if b = buckets - 1 then float_of_int (upper b)
        else if c > 0 && float_of_int (cum + c) >= rank then begin
          let lo = if b = 0 then 0.0 else float_of_int (upper (b - 1) + 1) in
          let hi = float_of_int (upper b) in
          lo +. ((hi -. lo) *. (rank -. float_of_int cum) /. float_of_int c)
        end
        else go (b + 1) (cum + c)
      in
      go 0 0
    end
end

(* The driver's top-level phases: the spans a server streams as
   progress and the journal records as ["phase"] events. *)
let phases =
  [ "opt.round"; "opt.balance"; "opt.polish"; "opt.sat_sweep";
    "opt.final_cec" ]

type span = { s_name : string; s_dur : int; s_cnt : int; s_phase : bool }

type event = {
  e_name : string;
  e_tid : int;
  e_ts : int;
  e_dur : int;
  e_trace : string;
}

type sink = { mutable slots : int array; mutable events : event list }

let new_sink () = { slots = [||]; events = [] }

let registry_mutex = Mutex.create ()
let metrics : (string, metric) Hashtbl.t = Hashtbl.create 64
let metric_order : metric list ref = ref []
let spans_tbl : (string, span) Hashtbl.t = Hashtbl.create 16
let span_order : span list ref = ref []
let next_slot = ref 0
let slot_max : bool array ref = ref (Array.make 64 false)
let sinks : sink list ref = ref []
let probes : (unit -> unit) list ref = ref []
let epoch_ns = ref (Clock.now_ns ())

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* Call with the registry mutex held. *)
let alloc_slots ~max_merge n =
  let base = !next_slot in
  next_slot := base + n;
  let cap = Array.length !slot_max in
  if !next_slot > cap then begin
    let bigger = Array.make (max (2 * cap) !next_slot) false in
    Array.blit !slot_max 0 bigger 0 cap;
    slot_max := bigger
  end;
  if max_merge then
    for i = base to base + n - 1 do
      !slot_max.(i) <- true
    done;
  base

let register_metric name kind stab n =
  locked (fun () ->
      match Hashtbl.find_opt metrics name with
      | Some m ->
        if m.m_kind <> kind || m.m_stab <> stab then
          invalid_arg ("Obs: metric re-registered with a different \
                        kind or stability: " ^ name);
        m
      | None ->
        let base = alloc_slots ~max_merge:(kind = Kgauge) n in
        let m = { m_name = name; m_kind = kind; m_stab = stab; m_base = base } in
        Hashtbl.replace metrics name m;
        metric_order := m :: !metric_order;
        m)

type counter = metric
type gauge = metric
type histogram = metric

let counter ?(stability = Det) name = register_metric name Kcounter stability 1
let gauge ?(stability = Det) name = register_metric name Kgauge stability 1

let histogram ?(stability = Det) name =
  register_metric name Khistogram stability Hist.slots

let span name =
  locked (fun () ->
      match Hashtbl.find_opt spans_tbl name with
      | Some s -> s
      | None ->
        let dur = alloc_slots ~max_merge:false 2 in
        let s =
          { s_name = name; s_dur = dur; s_cnt = dur + 1;
            s_phase = List.mem name phases }
        in
        Hashtbl.replace spans_tbl name s;
        span_order := s :: !span_order;
        s)

let register_probe f = locked (fun () -> probes := f :: !probes)

(* ------------------------------------------------------------------ *)
(* Recording                                                          *)
(* ------------------------------------------------------------------ *)

let on = Atomic.make false
let enabled () = Atomic.get on

type dstate = { mutable current : sink }

let dstate_key =
  Domain.DLS.new_key (fun () ->
      let s = new_sink () in
      locked (fun () -> sinks := s :: !sinks);
      { current = s })

let current_sink () = (Domain.DLS.get dstate_key).current

let ensure_capacity s slot =
  let cap = Array.length s.slots in
  if slot >= cap then begin
    let want = locked (fun () -> !next_slot) in
    let bigger = Array.make (max want (slot + 1)) 0 in
    Array.blit s.slots 0 bigger 0 cap;
    s.slots <- bigger
  end

let slot_add slot v =
  let s = current_sink () in
  ensure_capacity s slot;
  s.slots.(slot) <- s.slots.(slot) + v

let slot_maximize slot v =
  let s = current_sink () in
  ensure_capacity s slot;
  if v > s.slots.(slot) then s.slots.(slot) <- v

let add c v = if Atomic.get on then slot_add c.m_base v
let incr c = if Atomic.get on then slot_add c.m_base 1
let gauge_max g v = if Atomic.get on then slot_maximize g.m_base v

let observe h v =
  if Atomic.get on then begin
    let s = current_sink () in
    ensure_capacity s (h.m_base + Hist.slots - 1);
    Hist.observe_at s.slots h.m_base v
  end

(* Optional span listener: a server streams phase progress to clients
   by observing phase-span completions as they happen. Advisory and
   Sched by nature (which domain completes which span, and when,
   depends on scheduling) — never part of the deterministic report.
   The callback may run on any recording domain and must be
   thread-safe. *)
let span_listener : (string -> int -> unit) option Atomic.t = Atomic.make None
let set_span_listener f = Atomic.set span_listener f

(* Trace correlation: one current trace id for the process (jobs run one
   at a time on the executor; worker domains inherit it by reading the
   same atomic). Stamped on every trace event; excluded from every Det
   payload because which spans record while a trace is set depends on
   scheduling only through the (deterministic) job boundaries. *)
let current_trace : string Atomic.t = Atomic.make ""
let set_trace id = Atomic.set current_trace id
let trace_id () = Atomic.get current_trace

(* The one phase hook, fired by phase spans only: it journals the
   ["phase"] event when journaling is on (through a forward reference
   to [Journal], defined below after [Json]) and calls the span
   listener when one is set. *)
let journal_on = Atomic.make false
let journal_phase : (string -> unit) ref = ref (fun _ -> ())

let phase_done name dur =
  if Atomic.get journal_on then !journal_phase name;
  match Atomic.get span_listener with None -> () | Some f -> f name dur

let span_begin _s =
  if Atomic.get on then Int64.to_int (Clock.now_ns ()) else -1

let span_end sp token =
  if token >= 0 && Atomic.get on then begin
    let now = Int64.to_int (Clock.now_ns ()) in
    let dur = now - token in
    let s = current_sink () in
    ensure_capacity s (sp.s_cnt + 1);
    s.slots.(sp.s_dur) <- s.slots.(sp.s_dur) + dur;
    s.slots.(sp.s_cnt) <- s.slots.(sp.s_cnt) + 1;
    s.events <-
      { e_name = sp.s_name;
        e_tid = (Domain.self () :> int);
        e_ts = token;
        e_dur = dur;
        e_trace = Atomic.get current_trace }
      :: s.events;
    if sp.s_phase then phase_done sp.s_name dur
  end

let with_span sp f =
  let token = span_begin sp in
  match f () with
  | r ->
    span_end sp token;
    r
  | exception e ->
    span_end sp token;
    raise e

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

let ensure_capacity_raw s slot =
  let cap = Array.length s.slots in
  if slot >= cap then begin
    let bigger = Array.make (max (2 * max cap 16) (slot + 1)) 0 in
    Array.blit s.slots 0 bigger 0 cap;
    s.slots <- bigger
  end

let merge_into ~dst ~src =
  let n = Array.length src.slots in
  if n > 0 then begin
    ensure_capacity_raw dst (n - 1);
    let mx = !slot_max in
    for i = 0 to n - 1 do
      let v = src.slots.(i) in
      if v <> 0 then
        if i < Array.length mx && mx.(i) then begin
          if v > dst.slots.(i) then dst.slots.(i) <- v
        end
        else dst.slots.(i) <- dst.slots.(i) + v
    done
  end;
  dst.events <- src.events @ dst.events

module Sink = struct
  type t = sink

  let create () = new_sink ()

  let with_current s f =
    let d = Domain.DLS.get dstate_key in
    let prev = d.current in
    d.current <- s;
    Fun.protect ~finally:(fun () -> d.current <- prev) f

  let absorb s =
    let dst = current_sink () in
    merge_into ~dst ~src:s;
    s.slots <- [||];
    s.events <- []
end

(* GC probe: pull-model gauges from [Gc.quick_stat], registered at most
   once per process. Heap shape depends on scheduling and allocation
   interleaving, so everything is Sched and lands in the report's
   ["runtime"] subtree. *)
let gc_probe_registered = Atomic.make false

let register_gc_probe () =
  if not (Atomic.exchange gc_probe_registered true) then begin
    let minor = gauge ~stability:Sched "gc.minor_collections" in
    let major = gauge ~stability:Sched "gc.major_collections" in
    let compactions = gauge ~stability:Sched "gc.compactions" in
    let heap = gauge ~stability:Sched "gc.heap_words" in
    let top = gauge ~stability:Sched "gc.top_heap_words" in
    register_probe (fun () ->
        let s = Gc.quick_stat () in
        gauge_max minor s.Gc.minor_collections;
        gauge_max major s.Gc.major_collections;
        gauge_max compactions s.Gc.compactions;
        gauge_max heap s.Gc.heap_words;
        gauge_max top s.Gc.top_heap_words)
  end

let enable () =
  if not (Atomic.get on) then begin
    epoch_ns := Clock.now_ns ();
    Atomic.set on true
  end

let disable () = Atomic.set on false

let reset () =
  locked (fun () ->
      List.iter
        (fun s ->
          Array.fill s.slots 0 (Array.length s.slots) 0;
          s.events <- [])
        !sinks);
  epoch_ns := Clock.now_ns ()

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let float_repr f =
    (* Shortest decimal form that parses back to exactly [f]. *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* Keep it a JSON number that our parser reads back as Float. *)
    if String.contains s '.' || String.contains s 'e'
       || String.contains s 'n' (* inf/nan — not valid JSON, best effort *)
    then s
    else s ^ ".0"

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape b s
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 4096 in
    write b t;
    Buffer.contents b

  exception Bad

  let of_string str =
    let n = String.length str in
    let pos = ref 0 in
    let peek () = if !pos < n then str.[!pos] else '\255' in
    let advance () = pos := !pos + 1 in
    let skip_ws () =
      while
        !pos < n
        && (match str.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        pos := !pos + 1
      done
    in
    let expect c = if peek () = c then advance () else raise Bad in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise Bad;
        match str.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'b' -> Buffer.add_char b '\b'; advance ()
           | 'f' -> Buffer.add_char b '\012'; advance ()
           | 'u' ->
             advance ();
             if !pos + 4 > n then raise Bad;
             let code =
               try int_of_string ("0x" ^ String.sub str !pos 4)
               with _ -> raise Bad
             in
             pos := !pos + 4;
             (* UTF-8 encode the BMP code point. *)
             if code < 0x80 then Buffer.add_char b (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char b
                 (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
             end
           | _ -> raise Bad);
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      if peek () = '-' then advance ();
      while (match peek () with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      let is_float = ref false in
      if peek () = '.' then begin
        is_float := true;
        advance ();
        while (match peek () with '0' .. '9' -> true | _ -> false) do
          advance ()
        done
      end;
      (match peek () with
       | 'e' | 'E' ->
         is_float := true;
         advance ();
         (match peek () with '+' | '-' -> advance () | _ -> ());
         while (match peek () with '0' .. '9' -> true | _ -> false) do
           advance ()
         done
       | _ -> ());
      let s = String.sub str start (!pos - start) in
      if s = "" || s = "-" then raise Bad;
      if !is_float then Float (float_of_string s)
      else
        match int_of_string_opt s with
        | Some i -> Int i
        | None -> Float (float_of_string s)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '"' -> String (parse_string ())
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); items (v :: acc)
            | ']' -> advance (); List.rev (v :: acc)
            | _ -> raise Bad
          in
          List (items [])
        end
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec pairs acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); pairs ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> raise Bad
          in
          pairs []
        end
      | _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then raise Bad;
      v
    with
    | v -> Some v
    | exception (Bad | Failure _) -> None

  let rec equal a b =
    match (a, b) with
    | Null, Null -> true
    | Bool x, Bool y -> x = y
    | Int x, Int y -> x = y
    | Float x, Float y -> x = y
    | String x, String y -> String.equal x y
    | List x, List y ->
      List.length x = List.length y && List.for_all2 equal x y
    | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
           x y
    | _ -> false

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(*                                                                    *)
(* A bounded ring of typed lifecycle events (job admitted / started /  *)
(* phase / degraded / cancelled / finished, injection firings) that    *)
(* outlives per-job [reset] calls: it is a server-lifetime subsystem.  *)
(* Each event splits its payload into a Det half (stable across -j and *)
(* warm/cold for deterministic workloads) and a Sched half (ids,       *)
(* timestamps, wall latencies). Identity is checked through a          *)
(* commutative digest over the Det halves only, so the scheduling-     *)
(* dependent ORDER in which domains append cannot break it, and ring   *)
(* eviction cannot either (the digest accumulates at record time).     *)
(* ------------------------------------------------------------------ *)

module Journal = struct
  type entry = {
    seq : int;
    ts_ns : int;
    trace : string;
    kind : string;
    det : Json.t;
    sched : Json.t;
  }

  let mutex = Mutex.create ()

  (* All mutable state below is guarded by [mutex]. *)
  let ring : entry option array ref = ref [||]
  let head = ref 0
  let total = ref 0
  let d_count = ref 0
  let d_sum = ref 0L
  let d_xor = ref 0L
  let out : out_channel option ref = ref None
  let out_path = ref ""
  let out_bytes = ref 0
  let out_max_bytes = ref (8 * 1024 * 1024)
  let n_rotations = ref 0

  let locked f =
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

  (* FNV-1a 64-bit over the canonical serialization of the Det payload;
     combined order-insensitively (count, sum, xor) so any interleaving
     of the same multiset of Det events yields the same digest. *)
  let fnv1a64 s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s;
    !h

  let entry_json e =
    Json.Obj
      ([ ("seq", Json.Int e.seq);
         ("ts_ns", Json.Int e.ts_ns);
         ("kind", Json.String e.kind) ]
       @ (if e.trace = "" then [] else [ ("trace", Json.String e.trace) ])
       @ (match e.det with Json.Null -> [] | d -> [ ("det", d) ])
       @ (match e.sched with Json.Null -> [] | s -> [ ("sched", s) ]))

  (* Call with [mutex] held. *)
  let rotate_locked oc =
    close_out oc;
    (try Sys.rename !out_path (!out_path ^ ".1") with Sys_error _ -> ());
    out := Some (open_out !out_path);
    out_bytes := 0;
    n_rotations := !n_rotations + 1

  let record ~kind ?(det = Json.Null) ?(sched = Json.Null) () =
    if Atomic.get journal_on then begin
      let ts = Int64.to_int (Clock.now_ns ()) in
      let trace = Atomic.get current_trace in
      locked (fun () ->
          let e =
            { seq = !total; ts_ns = ts; trace; kind; det; sched }
          in
          total := !total + 1;
          (match det with
           | Json.Null -> ()
           | d ->
             let h = fnv1a64 (kind ^ "\x00" ^ Json.to_string d) in
             d_count := !d_count + 1;
             d_sum := Int64.add !d_sum h;
             d_xor := Int64.logxor !d_xor h);
          let cap = Array.length !ring in
          if cap > 0 then begin
            !ring.(!head) <- Some e;
            head := (!head + 1) mod cap
          end;
          match !out with
          | None -> ()
          | Some oc ->
            let line = Json.to_string (entry_json e) in
            let len = String.length line + 1 in
            let oc =
              if !out_bytes > 0 && !out_bytes + len > !out_max_bytes then begin
                rotate_locked oc;
                Option.get !out
              end
              else oc
            in
            output_string oc line;
            output_char oc '\n';
            flush oc;
            out_bytes := !out_bytes + len)
    end

  let () =
    journal_phase :=
      fun name ->
        record ~kind:"phase" ~det:(Json.Obj [ ("phase", Json.String name) ]) ()

  let clear () =
    locked (fun () ->
        Array.fill !ring 0 (Array.length !ring) None;
        head := 0;
        total := 0;
        d_count := 0;
        d_sum := 0L;
        d_xor := 0L)

  let enable ?(capacity = 4096) ?file ?(file_max_bytes = 8 * 1024 * 1024) () =
    locked (fun () ->
        (match !out with Some oc -> close_out oc | None -> ());
        ring := Array.make (max 1 capacity) None;
        head := 0;
        total := 0;
        d_count := 0;
        d_sum := 0L;
        d_xor := 0L;
        n_rotations := 0;
        out_bytes := 0;
        out_max_bytes := max 4096 file_max_bytes;
        (match file with
         | None ->
           out := None;
           out_path := ""
         | Some path ->
           out_path := path;
           out := Some (open_out path)));
    Atomic.set journal_on true

  let disable () =
    Atomic.set journal_on false;
    locked (fun () ->
        (match !out with Some oc -> close_out oc | None -> ());
        out := None;
        out_path := "")

  let journaling () = Atomic.get journal_on

  let entries () =
    locked (fun () ->
        let cap = Array.length !ring in
        let acc = ref [] in
        for i = 0 to cap - 1 do
          match !ring.((!head + cap - 1 - i) mod cap) with
          | Some e -> acc := e :: !acc
          | None -> ()
        done;
        !acc)

  let events_total () = locked (fun () -> !total)
  let rotations () = locked (fun () -> !n_rotations)

  let det_digest () =
    locked (fun () ->
        Printf.sprintf "%d:%016Lx:%016Lx" !d_count !d_sum !d_xor)
end

(* ------------------------------------------------------------------ *)
(* Snapshots and exports                                              *)
(* ------------------------------------------------------------------ *)

type snapshot = { snap : sink }

let snapshot () =
  let merged = new_sink () in
  let all, probe_fns =
    locked (fun () -> (!sinks, !probes))
  in
  (* Pull-model metrics record into a transient sink merged into this
     snapshot only, so cumulative probe values are never double-counted
     across snapshots. *)
  if Atomic.get on && probe_fns <> [] then begin
    let p = new_sink () in
    Sink.with_current p (fun () -> List.iter (fun f -> f ()) probe_fns);
    merge_into ~dst:merged ~src:p
  end;
  List.iter (fun s -> merge_into ~dst:merged ~src:s) all;
  { snap = merged }

let slot_value snap i =
  if i < Array.length snap.snap.slots then snap.snap.slots.(i) else 0

let counter_value snap name =
  match locked (fun () -> Hashtbl.find_opt metrics name) with
  | Some m when m.m_kind = Kcounter -> slot_value snap m.m_base
  | _ -> 0

let sorted_metrics () =
  locked (fun () -> !metric_order)
  |> List.sort (fun a b -> String.compare a.m_name b.m_name)

let counters snap =
  List.filter_map
    (fun m ->
      if m.m_kind = Kcounter then
        Some (m.m_name, m.m_stab, slot_value snap m.m_base)
      else None)
    (sorted_metrics ())

let sorted_spans () =
  locked (fun () -> !span_order)
  |> List.sort (fun a b -> String.compare a.s_name b.s_name)

let hist_of snap m =
  Array.init Hist.slots (fun i -> slot_value snap (m.m_base + i))

let hist_json snap m =
  let h = hist_of snap m in
  let buckets = ref [] in
  for b = Hist.buckets - 1 downto 0 do
    let c = Hist.bucket h b in
    if c <> 0 then buckets := (string_of_int b, Json.Int c) :: !buckets
  done;
  Json.Obj
    [ ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("buckets", Json.Obj !buckets) ]

let metric_section ~stab kind to_json =
  List.filter_map
    (fun m ->
      if m.m_kind = kind && m.m_stab = stab then Some (m.m_name, to_json m)
      else None)
    (sorted_metrics ())

let scalar snap m = Json.Int (slot_value snap m.m_base)

let subtree snap stab extra =
  Json.Obj
    ([ ("counters", Json.Obj (metric_section ~stab Kcounter (scalar snap)));
       ("gauges", Json.Obj (metric_section ~stab Kgauge (scalar snap)));
       ("histograms",
        Json.Obj (metric_section ~stab Khistogram (hist_json snap))) ]
     @ extra)

let durations_json snap =
  Json.Obj
    (List.map
       (fun s ->
         ( s.s_name,
           Json.Obj
             [ ("count", Json.Int (slot_value snap s.s_cnt));
               ("total_ns", Json.Int (slot_value snap s.s_dur)) ] ))
       (sorted_spans ()))

let schema_version = "lookahead-obs-report/1"

let report_json snap =
  Json.Obj
    [ ("schema", Json.String schema_version);
      ("deterministic", subtree snap Det []);
      ("runtime",
       subtree snap Sched [ ("durations", durations_json snap) ]) ]

let det_subtree j =
  match Json.member "deterministic" j with Some d -> d | None -> Json.Null

let trace_json snap =
  let epoch = Int64.to_int !epoch_ns in
  let events =
    List.sort
      (fun a b ->
        match compare a.e_ts b.e_ts with
        | 0 -> (
          match compare a.e_tid b.e_tid with
          | 0 -> String.compare a.e_name b.e_name
          | c -> c)
        | c -> c)
      snap.snap.events
  in
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.e_tid) events)
  in
  let meta =
    List.map
      (fun tid ->
        Json.Obj
          [ ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args",
             Json.Obj
               [ ("name", Json.String (Printf.sprintf "domain %d" tid)) ]) ])
      tids
  in
  let spans =
    List.map
      (fun e ->
        Json.Obj
          ([ ("name", Json.String e.e_name);
             ("ph", Json.String "X");
             ("ts", Json.Float (float_of_int (e.e_ts - epoch) /. 1e3));
             ("dur", Json.Float (float_of_int e.e_dur /. 1e3));
             ("pid", Json.Int 1);
             ("tid", Json.Int e.e_tid) ]
           @
           if e.e_trace = "" then []
           else
             [ ("args",
                Json.Obj [ ("trace", Json.String e.e_trace) ]) ]))
      events
  in
  Json.Obj
    [ ("traceEvents", Json.List (meta @ spans));
      ("displayTimeUnit", Json.String "ms") ]

let pp_summary fmt snap =
  let line = String.make 66 '-' in
  let header title =
    Format.fprintf fmt "%s@.%s@.%s@." line title line
  in
  let metric_rows stab kind =
    List.filter
      (fun m ->
        m.m_kind = kind && m.m_stab = stab
        &&
        match kind with
        | Khistogram -> Hist.count (hist_of snap m) <> 0
        | _ -> slot_value snap m.m_base <> 0)
      (sorted_metrics ())
  in
  let print_scalars title rows =
    if rows <> [] then begin
      header title;
      List.iter
        (fun m ->
          Format.fprintf fmt "  %-44s %17d@." m.m_name
            (slot_value snap m.m_base))
        rows
    end
  in
  print_scalars "counters (deterministic)" (metric_rows Det Kcounter);
  print_scalars "counters (runtime)" (metric_rows Sched Kcounter);
  print_scalars "gauges (max)" (metric_rows Det Kgauge @ metric_rows Sched Kgauge);
  let hists = metric_rows Det Khistogram @ metric_rows Sched Khistogram in
  if hists <> [] then begin
    header "histograms";
    Format.fprintf fmt "  %-34s %10s %13s %10s@." "" "count" "sum" "mean";
    List.iter
      (fun m ->
        let h = hist_of snap m in
        let count = Hist.count h and sum = Hist.sum h in
        Format.fprintf fmt "  %-34s %10d %13d %10.1f@." m.m_name count sum
          (float_of_int sum /. float_of_int (max 1 count)))
      hists
  end;
  let spans =
    List.filter (fun s -> slot_value snap s.s_cnt <> 0) (sorted_spans ())
  in
  if spans <> [] then begin
    header "phases (wall clock)";
    Format.fprintf fmt "  %-34s %10s %13s %10s@." "" "count" "total ms"
      "mean ms";
    List.iter
      (fun s ->
        let count = slot_value snap s.s_cnt in
        let ns = slot_value snap s.s_dur in
        Format.fprintf fmt "  %-34s %10d %13.2f %10.3f@." s.s_name count
          (float_of_int ns /. 1e6)
          (float_of_int ns /. 1e6 /. float_of_int (max 1 count)))
      spans
  end;
  Format.fprintf fmt "%s@." line
