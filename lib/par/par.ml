(* Deterministic domain-pool parallel runtime. See par.mli for the
   contract; the two load-bearing pieces are the FIFO queue (submission
   order is execution order up to worker count, which keeps the -j 1
   pool bit-identical in both results and interleaving to the old
   sequential loops) and the helping [await] (no blocking while work is
   queued, which makes nested submission deadlock-free). *)

let env_jobs () =
  match Sys.getenv_opt "LOOKAHEAD_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let forced_jobs = ref None

let default_jobs () =
  match !forced_jobs with
  | Some n -> n
  | None -> (
    match env_jobs () with
    | Some n -> n
    | None -> Domain.recommended_domain_count ())

module Pool = struct
  type t = {
    mutex : Mutex.t;
    (* One condition for everything — new work, completions, shutdown.
       Broadcast is cheap at pool scale and keeps helping awaiters from
       missing tasks their own pending future depends on. *)
    wake : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable closed : bool;
    mutable workers : unit Domain.t list;
    size : int;
    (* Introspection, all mutated with [mutex] held. [per_domain] maps
       a domain id to the tasks it completed; [n_helped] counts the
       subset executed inside a helping [await]. *)
    mutable n_submitted : int;
    mutable n_completed : int;
    mutable n_helped : int;
    per_domain : (int, int) Hashtbl.t;
  }

  let worker_loop pool =
    let running = ref true in
    while !running do
      Mutex.lock pool.mutex;
      while Queue.is_empty pool.queue && not pool.closed do
        Condition.wait pool.wake pool.mutex
      done;
      if Queue.is_empty pool.queue then begin
        (* closed, and the queue is drained *)
        running := false;
        Mutex.unlock pool.mutex
      end
      else begin
        let task = Queue.pop pool.queue in
        Mutex.unlock pool.mutex;
        task ()
      end
    done

  let create ?jobs () =
    let size = match jobs with Some j -> max 1 j | None -> default_jobs () in
    let pool =
      {
        mutex = Mutex.create ();
        wake = Condition.create ();
        queue = Queue.create ();
        closed = false;
        workers = [];
        size;
        n_submitted = 0;
        n_completed = 0;
        n_helped = 0;
        per_domain = Hashtbl.create 8;
      }
    in
    pool.workers <-
      List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
    pool

  let size pool = pool.size

  type stats = {
    pool_size : int;
    submitted : int;
    completed : int;
    helped : int;
    per_domain_completed : (int * int) list;
  }

  let stats pool =
    Mutex.lock pool.mutex;
    let per =
      Hashtbl.fold (fun d n acc -> (d, n) :: acc) pool.per_domain []
      |> List.sort compare
    in
    let s =
      {
        pool_size = pool.size;
        submitted = pool.n_submitted;
        completed = pool.n_completed;
        helped = pool.n_helped;
        per_domain_completed = per;
      }
    in
    Mutex.unlock pool.mutex;
    s

  let shutdown pool =
    Mutex.lock pool.mutex;
    if pool.closed then Mutex.unlock pool.mutex
    else begin
      pool.closed <- true;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.mutex;
      List.iter Domain.join pool.workers;
      pool.workers <- []
    end
end

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  pool : Pool.t;
  mutable state : 'a state;
  (* The task's private Obs sink (observation enabled only); taken by
     [await] under the pool mutex and absorbed into the awaiting
     context, so aggregates merge in submission order. *)
  mutable fsink : Obs.Sink.t option;
}

let submit (pool : Pool.t) f =
  let fut = { pool; state = Pending; fsink = None } in
  let task () =
    let sink = if Obs.enabled () then Some (Obs.Sink.create ()) else None in
    let run () =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    let result =
      match sink with None -> run () | Some s -> Obs.Sink.with_current s run
    in
    Mutex.lock pool.mutex;
    fut.fsink <- sink;
    fut.state <- result;
    pool.n_completed <- pool.n_completed + 1;
    (let d = (Domain.self () :> int) in
     Hashtbl.replace pool.per_domain d
       (1 + Option.value ~default:0 (Hashtbl.find_opt pool.per_domain d)));
    Condition.broadcast pool.wake;
    Mutex.unlock pool.mutex
  in
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Par.submit: pool is shut down"
  end;
  pool.n_submitted <- pool.n_submitted + 1;
  Queue.push task pool.queue;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  fut

let await fut =
  let pool = fut.pool in
  (* Runs with the pool mutex held; releases it around task execution. *)
  let rec resolve () =
    match fut.state with
    | Pending ->
      if not (Queue.is_empty pool.Pool.queue) then begin
        let task = Queue.pop pool.Pool.queue in
        pool.Pool.n_helped <- pool.Pool.n_helped + 1;
        Mutex.unlock pool.Pool.mutex;
        task ();
        Mutex.lock pool.Pool.mutex;
        resolve ()
      end
      else begin
        (* Pending and not queued: some other worker is executing it (or
           a task it transitively needs); its completion broadcasts. *)
        Condition.wait pool.Pool.wake pool.Pool.mutex;
        resolve ()
      end
    | (Done _ | Failed _) as r -> r
  in
  Mutex.lock pool.Pool.mutex;
  let r = resolve () in
  let sink = fut.fsink in
  fut.fsink <- None;
  Mutex.unlock pool.Pool.mutex;
  (* Outside the mutex: absorb touches only domain-local state, and the
     None above makes a second await of the same future a no-op. *)
  (match sink with Some s -> Obs.Sink.absorb s | None -> ());
  match r with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

(* ------------------------------------------------------------------ *)
(* Shared pool                                                         *)
(* ------------------------------------------------------------------ *)

let shared_pool : Pool.t option ref = ref None

let shared () =
  match !shared_pool with
  | Some p -> p
  | None ->
    let p = Pool.create () in
    shared_pool := Some p;
    p

let set_default_jobs n =
  forced_jobs := (if n <= 0 then None else Some (max 1 n));
  match !shared_pool with
  | Some p when Pool.size p <> default_jobs () ->
    Pool.shutdown p;
    shared_pool := None
  | _ -> ()

let () =
  at_exit (fun () ->
      match !shared_pool with
      | Some p ->
        shared_pool := None;
        Pool.shutdown p
      | None -> ())

(* Pool introspection, surfaced as a pull-model Obs probe reading the
   live shared pool at snapshot time. Every value is scheduling-
   dependent — at -j 1 [map] bypasses the pool and submits nothing at
   all — hence [Sched]. *)
let m_pool_size = Obs.gauge ~stability:Sched "par.pool_size"
let m_submitted = Obs.counter ~stability:Sched "par.tasks_submitted"
let m_completed = Obs.counter ~stability:Sched "par.tasks_completed"
let m_helped = Obs.counter ~stability:Sched "par.await_helped"

let m_per_domain =
  Obs.histogram ~stability:Sched "par.tasks_per_domain"

let () =
  Obs.register_probe (fun () ->
      match !shared_pool with
      | None -> ()
      | Some p ->
        let s = Pool.stats p in
        Obs.gauge_max m_pool_size s.Pool.pool_size;
        Obs.add m_submitted s.Pool.submitted;
        Obs.add m_completed s.Pool.completed;
        Obs.add m_helped s.Pool.helped;
        List.iter
          (fun (_, n) -> Obs.observe m_per_domain n)
          s.Pool.per_domain_completed)

(* ------------------------------------------------------------------ *)
(* Deterministic map / map_merge                                      *)
(* ------------------------------------------------------------------ *)

(* Per-call context store: one [init ()] per worker domain that executes
   at least one item of this call (the helping caller included). *)
type 'w ctx_store = {
  cm : Mutex.t;
  tbl : (int, 'w) Hashtbl.t;
  cinit : unit -> 'w;
}

let ctx_get store =
  let id = (Domain.self () :> int) in
  Mutex.lock store.cm;
  match Hashtbl.find_opt store.tbl id with
  | Some c ->
    Mutex.unlock store.cm;
    c
  | None ->
    (* Init outside the lock: a slow init (a network copy, a fresh BDD
       manager) must not serialize the other workers' first items. The
       domain id is unique to this domain, so no double insert. *)
    Mutex.unlock store.cm;
    let c = store.cinit () in
    Mutex.lock store.cm;
    Hashtbl.add store.tbl id c;
    Mutex.unlock store.cm;
    c

let resolve_pool = function Some p -> p | None -> shared ()

(* Submit every item and return the futures in submission order,
   unawaited: [map] awaits them all, [map_merge] one wave at a time. *)
let fork ?pool ~init ~f xs =
  let pool = resolve_pool pool in
  let store = { cm = Mutex.create (); tbl = Hashtbl.create 8; cinit = init } in
  List.map (fun x -> submit pool (fun () -> f (ctx_get store) x)) xs

let map ?pool ~init ~f xs =
  let pool = resolve_pool pool in
  if Pool.size pool <= 1 then begin
    (* -j 1: bypass the pool entirely — no queueing, no domains. *)
    match xs with
    | [] -> []
    | xs ->
      let ctx = init () in
      List.map (f ctx) xs
  end
  else List.map await (fork ~pool ~init ~f xs)

let map_list ?pool f xs = map ?pool ~init:(fun () -> ()) ~f:(fun () x -> f x) xs

(* Bounded-wave fork + submission-order merge. The affinity contract
   this encodes: any state a job builds privately (a per-job BDD
   manager, say) is touched by exactly one worker domain until its
   future is awaited, after which the merge callback — always on the
   calling domain, always in submission order — is the only reader.
   The wave bound caps how many completed-but-unmerged results are
   live at once. *)
let map_merge ?pool ~init ~f ~merge acc xs =
  let pool = resolve_pool pool in
  if Pool.size pool <= 1 then begin
    (* -j 1: bypass the pool entirely (like [map]); one [init] for the
       whole call, jobs interleaved with merges in submission order. *)
    match xs with
    | [] -> acc
    | xs ->
      let ctx = init () in
      List.fold_left (fun acc x -> merge acc x (f ctx x)) acc xs
  end
  else begin
    let wave = 4 * Pool.size pool in
    let rec split k = function
      | x :: tl when k > 0 ->
        let a, b = split (k - 1) tl in
        (x :: a, b)
      | tl -> ([], tl)
    in
    let rec waves acc = function
      | [] -> acc
      | xs ->
        let this, rest = split wave xs in
        let futs = fork ~pool ~init ~f this in
        let acc =
          List.fold_left2
            (fun acc x fut -> merge acc x (await fut))
            acc this futs
        in
        waves acc rest
    in
    waves acc xs
  end
