(** Pluggable request placement over the shard set — a pure function
    from (policy, backlog snapshot, tenant, size) to a shard index, so
    every policy is deterministic and table-testable ({!Suite_net}),
    exactly like the {!Serve.Sched} core.

    Policies (McKenney's partitioning guidance: shard first,
    communicate narrowly — the router is the {e only} cross-shard
    decision point, and it reads at most one int per shard, only when
    {!reads_depths} says the decision needs it):

    - {b Tenant_hash}: stable FNV-1a affinity — a tenant always lands
      on the same shard, so per-tenant state (DRR deficit, latency
      histograms) never splits across pools.
    - {b Jsq}: join-shortest-queue over the instantaneous backlog
      ({!Serve.Pool.depth}); ties break toward the lowest index, so
      placement is a pure function of the snapshot.
    - {b Size_aware}: shard 0 is reserved for small requests
      ([size <= small_max]) and {e only} small requests route there —
      a small request can never queue behind a large one (the
      space-sharing answer to head-of-line blocking, DESIGN §13).
      Large requests go join-shortest-queue over shards [1..n-1].
      With a single shard the policy degenerates to FIFO, which is
      what the bench's baseline leg measures. *)

type policy =
  | Tenant_hash
  | Jsq
  | Size_aware of { small_max : int }
      (** [small_max] in the same service-size units as
          {!Serve.Sched.req.size} *)

let policy_name : policy -> string = function
  | Tenant_hash -> "tenant-hash"
  | Jsq -> "jsq"
  | Size_aware _ -> "size-aware"

let policy_of_string ?(small_max = 4) : string -> policy option = function
  | "hash" | "tenant-hash" -> Some Tenant_hash
  | "jsq" | "shortest" -> Some Jsq
  | "size" | "size-aware" -> Some (Size_aware { small_max })
  | _ -> None

(** 64-bit FNV-1a, truncated to OCaml's 63-bit int — stable across
    runs and processes (unlike [Hashtbl.hash], which is documented to
    vary), which is what makes tenant affinity testable. *)
let fnv1a (s : string) : int =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int !h land max_int

(** [reads_depths policy ~shards ~size]: whether {!route} reads
    [depths] for a request of [size] over [shards] shards.  When
    [false], every snapshot routes it to the same shard, so the caller
    need not probe the pools: [Tenant_hash] reads none, nor does
    [Size_aware] for a small request or for a large one with a single
    large shard. *)
let reads_depths (policy : policy) ~(shards : int) ~(size : int) : bool =
  shards > 1
  &&
  match policy with
  | Tenant_hash -> false
  | Jsq -> true
  | Size_aware { small_max } -> size > small_max && shards > 2

let argmin (depths : int array) (lo : int) : int =
  let best = ref lo in
  for i = lo + 1 to Array.length depths - 1 do
    if depths.(i) < depths.(!best) then best := i
  done;
  !best

(** [route policy ~depths ~tenant ~size] picks a shard index in
    [0, Array.length depths).  [depths] is the per-shard backlog
    snapshot (ignored by [Tenant_hash]).  Raises on an empty shard
    set. *)
let route (policy : policy) ~(depths : int array) ~(tenant : string)
    ~(size : int) : int =
  let n = Array.length depths in
  if n = 0 then invalid_arg "Router.route: no shards";
  if n = 1 then 0
  else
    match policy with
    | Tenant_hash -> fnv1a tenant mod n
    | Jsq -> argmin depths 0
    | Size_aware { small_max } ->
        if size <= small_max then 0 else argmin depths 1
