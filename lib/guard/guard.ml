(* Resource governance: typed budgets + deterministic fault injection.
   See guard.mli for the contract. The layering constraint is that this
   module sits below bdd/sat/network/timing, so it may depend only on
   obs (whose monotonic clock the deadlines read). *)

module Deadline = struct
  (* [at] is an absolute CLOCK_MONOTONIC instant in ns ([max_int] means
     no time bound); [cancelled] lets an external agent (a server whose
     client hung up) expire the deadline early. Cancellation shares the
     Blowup[Time] path, so every existing cancellation point in the
     stack doubles as a cancel point for free. *)
  type t = { at : int64; cancelled : bool Atomic.t }

  let never : t = { at = Int64.max_int; cancelled = Atomic.make false }
  let cancellable () = { at = Int64.max_int; cancelled = Atomic.make false }

  let after s =
    if s <= 0.0 || s >= Int64.to_float Int64.max_int *. 1e-9 then never
    else
      {
        at = Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (s *. 1e9));
        cancelled = Atomic.make false;
      }

  (* A time-bounded view sharing [t]'s cancellation flag, so a handle
     created when a job is admitted keeps working after the runner
     tightens it to the job's wall budget at start. *)
  let bound t s =
    if s <= 0.0 || s >= Int64.to_float Int64.max_int *. 1e-9 then t
    else
      {
        at =
          Int64.min t.at
            (Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (s *. 1e9)));
        cancelled = t.cancelled;
      }

  (* The shared [never] must stay immune: cancelling it would expire
     every context built without an explicit deadline, process-wide. *)
  let cancel t = if t != never then Atomic.set t.cancelled true
  let cancelled t = Atomic.get t.cancelled

  let expired t =
    Atomic.get t.cancelled
    || ((not (Int64.equal t.at Int64.max_int)) && Obs.Clock.now_ns () > t.at)

  let remaining_s t =
    if Atomic.get t.cancelled then 0.0
    else if Int64.equal t.at Int64.max_int then infinity
    else Int64.to_float (Int64.sub t.at (Obs.Clock.now_ns ())) *. 1e-9
end

type resource = Bdd_nodes | Sat_conflicts | Time

let resource_name = function
  | Bdd_nodes -> "bdd-nodes"
  | Sat_conflicts -> "sat-conflicts"
  | Time -> "time"

exception Blowup of { resource : resource; site : string; injected : bool }

let () =
  Printexc.register_printer (function
    | Blowup { resource; site; injected } ->
      Some
        (Printf.sprintf "Guard.Blowup(%s at %s%s)" (resource_name resource)
           site
           (if injected then ", injected" else ""))
    | _ -> None)

module Budget = struct
  type t = {
    bdd_node_ceiling : int;
    sat_conflict_ceiling : int;
    sat_conflict_budget : int;
  }

  let default =
    {
      bdd_node_ceiling = 48_000_000;
      sat_conflict_ceiling = 0;
      sat_conflict_budget = 0;
    }

  let unlimited =
    { bdd_node_ceiling = 0; sat_conflict_ceiling = 0; sat_conflict_budget = 0 }
end

(* Hit counters are per-context, per-rule mutable state. Contexts are
   single-domain by construction (one per decomposition job / MFS run /
   driver run), so plain mutation is race-free, and the counts are a
   pure function of the unit's input — the determinism anchor for
   injection. [hits] is indexed by armed-rule position and grown lazily
   so arming after context creation still works. *)
type t = {
  guarded : bool;
  budget : Budget.t;
  deadline : Deadline.t;
  mutable hits : int array;
  mutable sat_spent : int;
      (* cumulative conflicts reported by guarded SAT calls; only
         mutated on guarded contexts so the shared [none] stays pure *)
}

let none =
  {
    guarded = false;
    budget = Budget.unlimited;
    deadline = Deadline.never;
    hits = [||];
    sat_spent = 0;
  }

let create ?(deadline = Deadline.never) budget =
  { guarded = true; budget; deadline; hits = [||]; sat_spent = 0 }

let budget t = t.budget
let deadline t = t.deadline

(* Split a context's node budget into [n] sub-contexts whose ceilings
   sum to the whole (remainder spread over the first parts, floor 1 so
   a tiny budget never turns into an unlimited 0). Each part gets fresh
   hit counters: injection rules fire against per-part tick counts,
   which depend only on that part's work — the same determinism anchor
   as per-job contexts. The deadline is shared (time is not divisible)
   and the per-call SAT ceiling is replicated (no part runs a bigger
   SAT query than the whole job could). *)
let divide t n =
  if n <= 0 then invalid_arg "Guard.divide: n must be positive";
  if not t.guarded then List.init n (fun _ -> none)
  else
    List.init n (fun i ->
        let split whole =
          if whole <= 0 then whole (* unlimited stays unlimited *)
          else max 1 ((whole / n) + if i < whole mod n then 1 else 0)
        in
        {
          guarded = true;
          budget =
            {
              t.budget with
              Budget.bdd_node_ceiling = split t.budget.Budget.bdd_node_ceiling;
              Budget.sat_conflict_budget =
                split t.budget.Budget.sat_conflict_budget;
            };
          deadline = t.deadline;
          hits = [||];
          sat_spent = 0;
        })

(* The floor-1 rule above means [divide t n] with [n] greater than the
   node ceiling hands out [n] parts of ceiling 1 — their sum exceeds
   the whole. Callers that can serialize instead (the portfolio arm
   splitter) probe this predicate and keep the undivided context. *)
let divide_overcommits t n =
  if n <= 0 then invalid_arg "Guard.divide_overcommits: n must be positive";
  t.guarded
  && t.budget.Budget.bdd_node_ceiling > 0
  && t.budget.Budget.bdd_node_ceiling < n

module Inject = struct
  type fault = Bdd_blowup | Sat_exhaust | Deadline_expire

  type rule = {
    fault : fault;
    at : int;
    repeat : bool;
    site : string option;
  }

  (* Publication protocol: [rules] is written before the [on] flag is
     raised and cleared only after it is lowered, so any domain that
     observes [on] (an SC atomic) sees the fully written rule list. *)
  let on = Atomic.make false
  let rules : rule list ref = ref []

  let arm rs =
    rules := rs;
    Atomic.set on (rs <> [])

  let disarm () =
    Atomic.set on false;
    rules := []

  let armed () = Atomic.get on

  let fault_name = function
    | Bdd_blowup -> "bdd"
    | Sat_exhaust -> "sat"
    | Deadline_expire -> "deadline"

  let fault_of_name = function
    | "bdd" -> Some Bdd_blowup
    | "sat" -> Some Sat_exhaust
    | "deadline" -> Some Deadline_expire
    | _ -> None

  let to_string rs =
    String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf "%s@%d%s%s" (fault_name r.fault) r.at
             (if r.repeat then ":r" else "")
             (match r.site with None -> "" | Some s -> ":" ^ s))
         rs)

  let parse_rule tok =
    match String.index_opt tok '@' with
    | None -> Error (Printf.sprintf "rule %S: expected fault@N" tok)
    | Some i -> (
      let fname = String.sub tok 0 i in
      let rest = String.sub tok (i + 1) (String.length tok - i - 1) in
      match fault_of_name fname with
      | None ->
        Error
          (Printf.sprintf "rule %S: unknown fault %S (bdd|sat|deadline)" tok
             fname)
      | Some fault -> (
        match String.split_on_char ':' rest with
        | [] -> Error (Printf.sprintf "rule %S: missing count" tok)
        | n :: flags -> (
          match int_of_string_opt n with
          | None | Some 0 ->
            Error (Printf.sprintf "rule %S: count must be a positive int" tok)
          | Some at when at < 0 ->
            Error (Printf.sprintf "rule %S: count must be a positive int" tok)
          | Some at -> (
            let repeat = List.mem "r" flags in
            match List.filter (fun f -> not (String.equal f "r")) flags with
            | [] -> Ok { fault; at; repeat; site = None }
            | [ s ] -> Ok { fault; at; repeat; site = Some s }
            | _ ->
              Error (Printf.sprintf "rule %S: too many ':' fields" tok)))))

  let of_string s =
    let toks =
      String.split_on_char ',' (String.trim s)
      |> List.map String.trim
      |> List.filter (fun t -> t <> "")
    in
    if toks = [] then Error "empty injection spec"
    else
      List.fold_left
        (fun acc tok ->
          match (acc, parse_rule tok) with
          | Error _, _ -> acc
          | Ok rs, Ok r -> Ok (r :: rs)
          | Ok _, Error e -> Error e)
        (Ok []) toks
      |> Result.map List.rev

  (* Splitmix64: deterministic, seed-indexed rule derivation for the
     fuzzer. Same seed, same rules, on every platform. *)
  let seeded ~seed =
    let state = ref (Int64.of_int (seed + 0x632be59)) in
    let next () =
      state := Int64.add !state 0x9E3779B97F4A7C15L;
      let z = !state in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
          0xBF58476D1CE4E5B9L
      in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
          0x94D049BB133111EBL
      in
      Int64.to_int (Int64.shift_right_logical z 33)
    in
    let faults = [| Bdd_blowup; Sat_exhaust; Deadline_expire |] in
    let n = 1 + (next () mod 2) in
    List.init n (fun _ ->
        {
          fault = faults.(next () mod 3);
          at = 1 + (next () mod 300);
          repeat = next () mod 2 = 0;
          site = None;
        })
end

(* One Det counter per fault class: the injection record in a report is
   part of the deterministic subtree, so a faulted -j 1 / -j 4 pair must
   agree on it exactly. *)
let m_injected_bdd = Obs.counter "guard.injected.bdd_blowup"
let m_injected_sat = Obs.counter "guard.injected.sat_exhaust"
let m_injected_deadline = Obs.counter "guard.injected.deadline"

(* Advance every matching rule's per-context hit count and report
   whether any fired. A site-filtered rule counts only calls at its
   site, so [deadline@2:driver.decompose] means "the second
   decompose-loop check of each job", not "a deadline tick that happens
   to be the context's second overall". *)
let fires t fault site =
  let rs = !Inject.rules in
  let n = List.length rs in
  if Array.length t.hits < n then begin
    let h = Array.make n 0 in
    Array.blit t.hits 0 h 0 (Array.length t.hits);
    t.hits <- h
  end;
  let fired = ref false in
  List.iteri
    (fun i (r : Inject.rule) ->
      if
        r.fault = fault
        && match r.site with None -> true | Some s -> String.equal s site
      then begin
        t.hits.(i) <- t.hits.(i) + 1;
        let c = t.hits.(i) in
        if (if r.repeat then c >= r.at && c mod r.at = 0 else c = r.at) then
          fired := true
      end)
    rs;
  !fired

(* Injection firings are deterministic (per-context tick counters), so
   the journal payload is Det: the same faults fire at the same sites
   in the same multiset at any [-j] and warm or cold. *)
let journal_injected ~fault ~site =
  Obs.Journal.record ~kind:"guard.injected"
    ~det:
      (Obs.Json.Obj
         [ ("fault", Obs.Json.String fault);
           ("site", Obs.Json.String site) ])
    ()

let tick_bdd t ~site =
  if t.guarded && Atomic.get Inject.on && fires t Inject.Bdd_blowup site
  then begin
    Obs.incr m_injected_bdd;
    journal_injected ~fault:"bdd_blowup" ~site;
    raise (Blowup { resource = Bdd_nodes; site; injected = true })
  end

let bdd_ceiling t =
  if t.budget.Budget.bdd_node_ceiling <= 0 then max_int
  else t.budget.Budget.bdd_node_ceiling

let tick_sat t ~site =
  if t.guarded && Atomic.get Inject.on && fires t Inject.Sat_exhaust site
  then begin
    Obs.incr m_injected_sat;
    journal_injected ~fault:"sat_exhaust" ~site;
    true
  end
  else false

(* The per-call ceiling and the cumulative budget compose by taking the
   tightest positive bound; [<= 0] on any side means "no opinion". The
   cumulative remainder is floored at 1 so a nearly spent budget still
   caps the last call instead of reading as unlimited — full exhaustion
   is [sat_exhausted], checked by the caller before the call. *)
let sat_limit t ~requested =
  let cap v limit =
    if limit <= 0 then v else if v <= 0 then limit else min v limit
  in
  let v = cap requested t.budget.Budget.sat_conflict_ceiling in
  let b = t.budget.Budget.sat_conflict_budget in
  if b <= 0 then v else cap v (max 1 (b - t.sat_spent))

let sat_exhausted t =
  t.guarded
  && t.budget.Budget.sat_conflict_budget > 0
  && t.sat_spent >= t.budget.Budget.sat_conflict_budget

let sat_spend t ~conflicts =
  if t.guarded && conflicts > 0 then t.sat_spent <- t.sat_spent + conflicts

let sat_spent t = t.sat_spent

let check_deadline t ~site =
  if t.guarded then begin
    if Atomic.get Inject.on && fires t Inject.Deadline_expire site then begin
      Obs.incr m_injected_deadline;
      journal_injected ~fault:"deadline_expire" ~site;
      raise (Blowup { resource = Time; site; injected = true })
    end;
    if Deadline.expired t.deadline then begin
      (* Real expiry is pure scheduling: sched-only, excluded from the
         journal's Det digest. *)
      Obs.Journal.record ~kind:"guard.deadline"
        ~sched:(Obs.Json.Obj [ ("site", Obs.Json.String site) ])
        ();
      raise (Blowup { resource = Time; site; injected = false })
    end
  end
