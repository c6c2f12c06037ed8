open Numeric

(* Native-int image of a game's numeric data, and the two load lanes
   that the [View] and [Cview] cursors run on.  Both lanes use one
   scheme: loads and row weights are integer numerators over one common
   denominator, and capacities are reduced (numerator, denominator)
   pairs, so every latency comparison is a three-factor integer cross
   product.  The packed lane holds native ints — [build] refuses
   (returns [None]) whenever any component spills the native range, and
   the product bound makes every product fit — and the exact lane holds
   [Bigint]s, with a native image that its rows run the packed lane's
   own integer kernels on whenever their products fit, so packing is a
   pure optimisation with no semantic surface.

   This is the only module that knows which lane a cursor is on.  A row
   is a user for [View] and a class for [Cview]; every kernel below is
   a first-order function of the lane, the exact row tables and a row
   index, so the cursors stay thin and the hot path pays no closure or
   functor indirection. *)

type t = {
  scale : int; (* lcm of the weight denominators *)
  pw : int array; (* pw.(r) = weight_r · scale *)
  cn : int array; (* cn.(r*m + l) = num (capacity r l) > 0 *)
  cd : int array; (* cd.(r*m + l) = den (capacity r l) > 0 *)
  wsum : int; (* Σ mult_r · pw.(r): total scaled traffic *)
  maxcn : int;
  maxcd : int;
  base_ok : bool; (* the product bound holds with no initial traffic *)
}

exception Spill

let to_native b =
  match Bigint.to_int_opt b with
  | Some v -> v
  | None -> raise Spill

(* Every packed predicate evaluates products of the shape
   (load + weight)·cden·cnum with load + weight ≤ 2·total, so the one
   bound that makes all of them (and every intermediate) exact is
   2·total·maxcd·maxcn ≤ max_int.  Checked in Bigint once per view
   construction and per structural delta — after which the hot path
   carries no overflow checks at all. *)
let admits ~total ~maxcn ~maxcd =
  total >= 0
  &&
  match
    Bigint.to_int_opt
      (Bigint.mul
         (Bigint.mul (Bigint.of_int 2) (Bigint.of_int total))
         (Bigint.mul (Bigint.of_int maxcd) (Bigint.of_int maxcn)))
  with
  | Some _ -> true
  | None -> false

(* [lcm s d] for a positive scale [s] and denominator [d]. *)
let lcm s d = if Bigint.equal d Bigint.one then s else Bigint.mul s (Bigint.div d (Bigint.gcd s d))

(* [scale_lcm from dens] extends the Bigint scale [from] to a common
   multiple of every denominator in [dens]. *)
let scale_lcm from dens = Array.fold_left lcm from dens

(* [q·s] for a denominator of [q] that divides [s]. *)
let scaled s q = Bigint.mul (Rational.num q) (Bigint.div s (Rational.den q))

type lifted = { den : Bigint.t; nums : Bigint.t array; mass : Bigint.t }

let lift ?mults qs =
  let den = scale_lcm Bigint.one (Array.map Rational.den qs) in
  let nums = Array.map (scaled den) qs in
  let mass = ref Bigint.zero in
  Array.iteri
    (fun r a ->
      let a = match mults with None -> a | Some c -> Bigint.mul (Bigint.of_int c.(r)) a in
      mass := Bigint.add !mass a)
    nums;
  { den; nums; mass = !mass }

(* Narrows [weights]' one integer pass to native ints; the capacities
   are read as their reduced num/den. *)
let build (weights : lifted) (capacities : Rational.t array array) =
  try
    let n = Array.length weights.nums in
    let m = Array.length capacities.(0) in
    let scale = to_native weights.den in
    let pw = Array.map to_native weights.nums in
    let wsum = to_native weights.mass in
    let cn = Array.make (n * m) 0 and cd = Array.make (n * m) 0 in
    let maxcn = ref 1 and maxcd = ref 1 in
    Array.iteri
      (fun r row ->
        Array.iteri
          (fun l c ->
            let a = to_native (Rational.num c) and b = to_native (Rational.den c) in
            if a <= 0 || b <= 0 then raise Spill;
            cn.((r * m) + l) <- a;
            cd.((r * m) + l) <- b;
            if a > !maxcn then maxcn := a;
            if b > !maxcd then maxcd := b)
          row)
      capacities;
    let maxcn = !maxcn and maxcd = !maxcd in
    Some { scale; pw; cn; cd; wsum; maxcn; maxcd; base_ok = admits ~total:wsum ~maxcn ~maxcd }
  with Spill -> None

(* [rescale pk initial] re-derives the per-view scale when a view
   carries initial link traffic: the scale grows to cover the initial
   denominators and the scaled weights grow with it.  Returns
   [(scale, pw, iload0)] or [None] on any native spill or when the
   product bound fails at the larger total. *)
let rescale pk initial =
  try
    let scale_b = scale_lcm (Bigint.of_int pk.scale) (Array.map Rational.den initial) in
    let scale = to_native scale_b in
    let factor = scale / pk.scale in
    let pw =
      if factor = 1 then pk.pw
      else
        Array.map
          (fun w -> to_native (Bigint.mul (Bigint.of_int w) (Bigint.of_int factor)))
          pk.pw
    in
    let iload0 =
      Array.map
        (fun q -> to_native (Bigint.mul (Rational.num q) (Bigint.div scale_b (Rational.den q))))
        initial
    in
    let total_b =
      Array.fold_left
        (fun acc v -> Bigint.add acc (Bigint.of_int v))
        (Bigint.mul (Bigint.of_int pk.wsum) (Bigint.of_int factor))
        iload0
    in
    let total = to_native total_b in
    if admits ~total ~maxcn:pk.maxcn ~maxcd:pk.maxcd then Some (scale, pw, iload0) else None
  with Spill -> None

(* --- lanes ------------------------------------------------------- *)

type rows = {
  weights : Rational.t array;
  contribs : Rational.t array;
  biases : Rational.t array;
  caps : Rational.t array array;
}

type packed_lane = {
  pscale : int; (* common denominator of all loads/weights *)
  mutable ppw : int array; (* scaled weight per row *)
  piload : int array; (* scaled load per link *)
  mutable pcn : int array; (* capacity numerators, row-major r*m + l *)
  mutable pcd : int array; (* capacity denominators *)
  mutable powned : bool; (* ppw/pcn/pcd are private copies, safe to mutate *)
  mutable pmaxcn : int; (* monotone upper bounds for the product bound *)
  mutable pmaxcd : int;
  mutable ptotal : int; (* current total scaled traffic, initial included *)
  pinit : Rational.t array option; (* the initial traffic, for a spill *)
}

(* The exact lane is the packed scheme in [Bigint]: loads and each
   row's weight, contribution and bias are integer numerators over one
   common denominator [es], and capacities are read from the rows'
   reduced num/den.  [es] is always exactly the lcm of the live weight,
   contribution and initial-traffic denominators: construction, spill
   and reweight recompute it and rescale exactly, so it shrinks back
   when a denominator leaves.

   Beside the [Bigint] state the lane keeps its native image: every
   load and row entry, and every capacity's num/den in the packed
   lane's row-major layout, as the native int it holds or [min_int]
   when it is [Big] ([Bigint.native_or_min_int]).  Every patch of the
   [Bigint] state patches the image too.  A row whose image passes
   [admitted] runs the packed lane's integer kernels on it, unboxed;
   any other row runs the [Bigint] kernels. *)
type exact_lane = {
  mutable es : Bigint.t;
  ew : Bigint.t array; (* weight_r · es *)
  et : Bigint.t array; (* contribution_r · es *)
  eb : Bigint.t array; (* bias_r · es = ew.(r) − et.(r) *)
  eload : Bigint.t array; (* load_l · es *)
  einit : Rational.t array option; (* the initial traffic *)
  nw : int array; (* the image of ew *)
  nt : int array; (* of et *)
  nb : int array; (* of eb *)
  nload : int array; (* of eload *)
  mutable ncn : int array; (* capacity numerators, row-major r*m + l *)
  mutable ncd : int array; (* capacity denominators *)
  mutable nowned : bool; (* ncn/ncd are private copies, safe to mutate *)
  nlim : int array; (* per row: [row_limit] of its capacities *)
}

type lane = Exact of exact_lane | Packed of packed_lane

let links = function
  | Exact e -> Array.length e.eload
  | Packed pk -> Array.length pk.piload

let is_packed = function Packed _ -> true | Exact _ -> false

let scale = function
  | Exact e -> e.es
  | Packed pk -> Bigint.of_int pk.pscale

(* [live_scale ?revise rows init] is the lcm of the initial-traffic
   denominators and every row's weight and contribution denominators,
   with [revise = (r, w, t)] standing in for row [r]'s pair. *)
let live_scale ?revise rows init =
  let s = ref Bigint.one in
  Option.iter (Array.iter (fun q -> s := lcm !s (Rational.den q))) init;
  Array.iteri
    (fun r w ->
      let w, t =
        match revise with
        | Some (r', w', t') when r = r' -> (w', t')
        | _ -> (w, rows.contribs.(r))
      in
      s := lcm (lcm !s (Rational.den w)) (Rational.den t))
    rows.weights;
  !s

let native = Bigint.native_or_min_int

(* Refresh the image [n] of the [Bigint] table [a]. *)
let sync n a = Array.iteri (fun i x -> n.(i) <- native x) a

(* The image of [rows]' capacities over [m] links. *)
let cap_image rows m =
  let k = Array.length rows.caps in
  let cn = Array.make (k * m) 0 and cd = Array.make (k * m) 0 in
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun l c ->
          cn.((r * m) + l) <- native (Rational.num c);
          cd.((r * m) + l) <- native (Rational.den c))
        row)
    rows.caps;
  (cn, cd)

(* The capacity half of row [r]'s admission (see [admitted]):
   ⌊max_int/(maxcd_r·maxcn_r)⌋ over the row's largest capacity den and
   num, or −1 when one of them is [Big] or their product overflows.
   Kept per row so that the hot path pays no division. *)
let row_limit cn cd m r =
  let maxcn = ref 1 and maxcd = ref 1 and ok = ref true in
  for l = 0 to m - 1 do
    let a = cn.((r * m) + l) and b = cd.((r * m) + l) in
    if a = min_int || b = min_int then ok := false
    else begin
      if a > !maxcn then maxcn := a;
      if b > !maxcd then maxcd := b
    end
  done;
  if !ok && !maxcd <= max_int / !maxcn then max_int / (!maxcd * !maxcn) else -1

(* A fresh exact lane over [rows] at scale [es], holding [eload].  The
   capacity image is [caps] when given (the packed tables of the same
   rows, shared until the first capacity revision), and built from
   [rows] otherwise. *)
let exact ?caps rows init es eload =
  let ew = Array.map (scaled es) rows.weights
  and et = Array.map (scaled es) rows.contribs
  and eb = Array.map (scaled es) rows.biases in
  let (ncn, ncd), nowned =
    match caps with
    | Some tables -> (tables, false)
    | None -> (cap_image rows (Array.length eload), true)
  in
  Exact
    {
      es;
      ew;
      et;
      eb;
      eload;
      einit = init;
      nw = Array.map native ew;
      nt = Array.map native et;
      nb = Array.map native eb;
      nload = Array.map native eload;
      ncn;
      ncd;
      nowned;
      nlim = Array.init (Array.length ew) (row_limit ncn ncd (Array.length eload));
    }

(* [count·x], skipping the multiplication for a single user. *)
let times count x = if count = 1 then x else Bigint.mul (Bigint.of_int count) x

(* [x + y], skipping the addition (and its allocation) for a zero [y]:
   the bias of every load-linear row. *)
let plus x y = if Bigint.is_zero y then x else Bigint.add x y

(* Unchecked load patch: [delta] more row-[r] users on [link].  Loads
   sum contributions, not weights: other users only meet the
   presence-discounted traffic of a row (for load-linear rows the
   contribution is physically the weight). *)
let add_count lane r ~link ~delta =
  match lane with
  | Exact e ->
    e.eload.(link) <- Bigint.add e.eload.(link) (times delta e.et.(r));
    e.nload.(link) <- native e.eload.(link)
  | Packed pk ->
    let d = delta * pk.ppw.(r) in
    pk.piload.(link) <- pk.piload.(link) + d;
    pk.ptotal <- pk.ptotal + d

let make_lane pk rows ?initial m =
  let initial = Option.map Array.copy initial in
  let packed =
    match (pk, initial) with
    | Some pk, None when pk.base_ok -> Some (pk, (pk.scale, pk.pw, Array.make m 0))
    | Some pk, Some t -> Option.map (fun scaled -> (pk, scaled)) (rescale pk t)
    | _ -> None
  in
  match packed with
  | None ->
    let es = live_scale rows initial in
    exact ?caps:(Option.map (fun pk -> (pk.cn, pk.cd)) pk) rows initial es
      (match initial with
       | None -> Array.make m Bigint.zero
       | Some t -> Array.map (scaled es) t)
  | Some (pk, (scale, pw, iload)) ->
    (* The product bound was checked at the full total, so every
       partial total met while the caller places the occupants with
       [add_count] fits too. *)
    Packed
      {
        pscale = scale;
        ppw = pw;
        piload = iload;
        pcn = pk.cn;
        pcd = pk.cd;
        powned = false;
        pmaxcn = pk.maxcn;
        pmaxcd = pk.maxcd;
        ptotal = Array.fold_left ( + ) 0 iload;
        pinit = initial;
      }

(* Both lanes rebuild rationals on demand through [Rational.make],
   whose canonical lowest-terms form makes them structurally identical
   whichever lane computed them — lane choice is unobservable in
   results.  [Rational.make] runs only where a rational is returned. *)
let load lane l =
  match lane with
  | Exact e -> Rational.make e.eload.(l) e.es
  | Packed pk -> Rational.make (Bigint.of_int pk.piload.(l)) (Bigint.of_int pk.pscale)

let load_num lane l =
  match lane with
  | Exact e -> e.eload.(l)
  | Packed pk -> Bigint.of_int pk.piload.(l)

let q_latency pk total idx =
  Rational.make
    (Bigint.of_int (total * pk.pcd.(idx)))
    (Bigint.mul (Bigint.of_int pk.pscale) (Bigint.of_int pk.pcn.(idx)))

(* The exact-lane twin: [total] scaled by [es], over capacity [c]. *)
let e_latency e total c =
  Rational.make (Bigint.mul total (Rational.den c)) (Bigint.mul e.es (Rational.num c))

(* Unrecorded block reassignment: [count] row-[r] users from [src] to
   [dst].  Touches exactly the two affected load entries; both lanes
   are exact, so repeated shifts never drift.  On the packed lane
   [count·pw] cannot wrap: it is at most the total scaled traffic,
   which fits by construction. *)
let shift lane r ~src ~dst count =
  match lane with
  | Exact e ->
    let d = times count e.et.(r) in
    e.eload.(src) <- Bigint.sub e.eload.(src) d;
    e.eload.(dst) <- Bigint.add e.eload.(dst) d;
    e.nload.(src) <- native e.eload.(src);
    e.nload.(dst) <- native e.eload.(dst)
  | Packed pk ->
    let d = count * pk.ppw.(r) in
    pk.piload.(src) <- pk.piload.(src) - d;
    pk.piload.(dst) <- pk.piload.(dst) + d

(* A row's own latency carries its bias (w − t): a user is always
   present for itself, even when others only expect it with probability
   p.  After a deviation the user meets its full weight: contribution +
   bias = w.  The packed lane holds load-linear rows only, where the
   bias is zero. *)
let latency lane rows r l =
  match lane with
  | Exact e -> e_latency e (plus e.eload.(l) e.eb.(r)) rows.caps.(r).(l)
  | Packed pk -> q_latency pk pk.piload.(l) ((r * Array.length pk.piload) + l)

let latency_after_move lane rows r ~src dst =
  match lane with
  | Exact e ->
    let extra = if dst = src then e.eb.(r) else e.ew.(r) in
    e_latency e (plus e.eload.(dst) extra) rows.caps.(r).(dst)
  | Packed pk ->
    let total = pk.piload.(dst) + if dst = src then 0 else pk.ppw.(r) in
    q_latency pk total ((r * Array.length pk.piload) + dst)

(* --- the native kernels ------------------------------------------ *)

(* One integer kernel per decision, shared by both lanes.  Each reads
   a row's loads, weight W, contribution T and bias B, and its
   capacity nums/dens at [base] = r·m, from native tables: the packed
   lane passes its own with T = W and B = 0 (its rows are load-linear),
   the exact lane its image, for a row that [admitted] admits.  A row
   it does not admit runs the [Bigint] twin of the kernel. *)

(* Row [r] of the exact lane's image admits the native kernels when
   every load and every capacity num/den of the row is native,
   0 <= B <= W (so W, B and T = W − B are native too), and
     (max_l L_l + W)·maxcd_r·maxcn_r <= max_int,
   with maxcd_r, maxcn_r the row's largest capacity den and num: that
   is, max_l L_l + W <= [row_limit], exactly, as the limit is a floor.
   Every product the kernels form is then at most that bound: a
   deviation or own numerator (L + W)·cd or (L + B)·cd times a cn,
   [max_block]'s a, b <= maxcd·maxcn times L + W or L + B, and its
   T·(a + b) <= 2T·maxcd·maxcn, where 2T <= L_src + W once the source
   holds one of the row's users.  O(m) and allocation-free, checked
   per row on every call, since loads move with every shift. *)
let admitted e r =
  let w = e.nw.(r) and b = e.nb.(r) and m = Array.length e.nload in
  0 <= b && b <= w
  &&
  let maxl = ref 0 and l = ref 0 in
  while !l < m && e.nload.(!l) <> min_int do
    if e.nload.(!l) > !maxl then maxl := e.nload.(!l);
    incr l
  done;
  !l = m && !maxl <= e.nlim.(r) - w

(* An admitted kernel's answer against its [Bigint] twin, under
   SELFISH_SANITIZE. *)
let agree what r native exact =
  if native <> exact then
    Sanitize.fail
      (Printf.sprintf "Packing: the native %s of row %d gave %d, the Bigint kernel %d" what r
         native exact)

(* Candidate latencies are (load'·cd)/(scale·cn), with load' = L + B
   on the source and L + W elsewhere: the best is tracked as the pair
   (load'·cd, cn) and compared by cross products. *)
let n_best_link load cn cd base ~w ~b ~src =
  let m = Array.length load in
  let best = ref 0 in
  let bnum = ref ((load.(0) + if src = 0 then b else w) * cd.(base)) and bcn = ref cn.(base) in
  for l = 1 to m - 1 do
    let a = (load.(l) + if src = l then b else w) * cd.(base + l) in
    if a * !bcn < !bnum * cn.(base + l) then begin
      best := l;
      bnum := a;
      bcn := cn.(base + l)
    end
  done;
  !best

let e_best_link e rows r ~src =
  let caps = rows.caps.(r) in
  let numer l =
    Bigint.mul (plus e.eload.(l) (if l = src then e.eb.(r) else e.ew.(r))) (Rational.den caps.(l))
  in
  let best = ref 0 and bnum = ref (numer 0) and bcn = ref (Rational.num caps.(0)) in
  for l = 1 to Array.length caps - 1 do
    let a = numer l and cn = Rational.num caps.(l) in
    if Bigint.compare (Bigint.mul a !bcn) (Bigint.mul !bnum cn) < 0 then begin
      best := l;
      bnum := a;
      bcn := cn
    end
  done;
  !best

let best_link lane rows r ~src =
  match lane with
  | Packed pk ->
    n_best_link pk.piload pk.pcn pk.pcd (r * Array.length pk.piload) ~w:pk.ppw.(r) ~b:0 ~src
  | Exact e when admitted e r ->
    let l =
      n_best_link e.nload e.ncn e.ncd (r * Array.length e.nload) ~w:e.nw.(r) ~b:e.nb.(r) ~src
    in
    if !Sanitize.enabled then agree "best_link" r l (e_best_link e rows r ~src);
    l
  | Exact e -> e_best_link e rows r ~src

let best_response lane rows r ~src =
  let l = best_link lane rows r ~src in
  (l, latency_after_move lane rows r ~src l)

(* The Nash inequality as a cross product: moving to [l] strictly
   improves on [src] iff
     (L_l + W)·cd_l·cn_src < (L_src + B)·cd_src·cn_l,
   with every term scaled by the lane's denominator.  A deviation
   numerator is load + contribution + bias = load + W for every
   backend.  No gcd and no rational on either lane. *)
let e_dev e caps w l = Bigint.mul (Bigint.add e.eload.(l) w) (Rational.den caps.(l))

let e_improves e caps ~w ~cnum ~ccn l =
  Bigint.compare (Bigint.mul (e_dev e caps w l) ccn) (Bigint.mul cnum (Rational.num caps.(l))) < 0

let is_defector lane rows r ~src =
  let m = links lane and l = ref 0 in
  (match lane with
   | Exact e ->
     let caps = rows.caps.(r) and w = e.ew.(r) in
     let cnum = Bigint.mul (plus e.eload.(src) e.eb.(r)) (Rational.den caps.(src))
     and ccn = Rational.num caps.(src) in
     while !l < m && (!l = src || not (e_improves e caps ~w ~cnum ~ccn !l)) do
       incr l
     done
   | Packed pk ->
     let base = r * m and w = pk.ppw.(r) in
     let cnum = pk.piload.(src) * pk.pcd.(base + src) and ccn = pk.pcn.(base + src) in
     while
       !l < m
       && (!l = src || (pk.piload.(!l) + w) * pk.pcd.(base + !l) * ccn >= cnum * pk.pcn.(base + !l))
     do
       incr l
     done);
  !l < m

(* Single-destination restriction of [is_defector]: callers may probe
   candidate links one at a time without paying for a full
   best-response sweep. *)
let improves lane rows r ~src dst =
  dst <> src
  &&
  match lane with
  | Exact e ->
    let caps = rows.caps.(r) in
    e_improves e caps ~w:e.ew.(r)
      ~cnum:(Bigint.mul (plus e.eload.(src) e.eb.(r)) (Rational.den caps.(src)))
      ~ccn:(Rational.num caps.(src)) dst
  | Packed pk ->
    let m = Array.length pk.piload in
    let base = r * m and w = pk.ppw.(r) in
    (pk.piload.(dst) + w) * pk.pcd.(base + dst) * pk.pcn.(base + src)
    < pk.piload.(src) * pk.pcd.(base + src) * pk.pcn.(base + dst)

(* --- the per-row defector pass ----------------------------------- *)

(* One minimum decides every source.  A deviation latency
   (L_l + W)·cd_l/cn_l does not depend on the source: a deviating user
   meets link l's load plus its own full weight W whichever link it
   leaves.  A user on s defects iff some l ≠ s has a deviation latency
   strictly below its own latency (L_s + B)·cd_s/cn_s.  The source's
   own entry can never be that witness: it exceeds the own latency by
   (W − B)·cd_s/cn_s = T·cd_s/cn_s > 0, T the row's contribution.  So
   "some l ≠ s is below" is "the smallest deviation latency over all
   links is below": one O(m) pass finds that minimum, as a pair
   (dev, cn) = ((L_l + W)·cd_l, cn_l), and one cross product per
   occupied source then decides it.  That is O(m) per row instead of
   an O(m) [is_defector] per source, and no second-smallest is needed:
   when the minimum sits on s itself, nothing is below.

   With a mask [only], a source outside it is compared only with the
   cheapest link inside the mask (never the source itself), while a
   source inside it gets the full minimum: the restricted rule of
   [Serve.Repair].  A minimum is carried as its pair, with cn = 0 for
   "no masked link yet" (capacities are positive).  Each decision
   dev·cn_s < (L_s + B)·cd_s·cn is [improves]'s own cross product
   towards the link holding the minimum, so the native kernel stays
   inside its bound and the [Bigint] one forms the same products. *)

let n_first_defecting load cn cd base ~w ~b counts only =
  let m = Array.length load in
  let bn = ref 0 and bc = ref 0 and tn = ref 0 and tc = ref 0 in
  for l = 0 to m - 1 do
    let a = (load.(l) + w) * cd.(base + l) and c = cn.(base + l) in
    if !bc = 0 || a * !bc < !bn * c then begin
      bn := a;
      bc := c
    end;
    match only with
    | Some t when t.(l) && (!tc = 0 || a * !tc < !tn * c) ->
      tn := a;
      tc := c
    | _ -> ()
  done;
  let s = ref 0 in
  while
    !s < m
    && not
         (counts.(!s) > 0
         &&
         let own = (load.(!s) + b) * cd.(base + !s) and c = cn.(base + !s) in
         match only with
         | Some t when not t.(!s) -> !tc > 0 && !tn * c < own * !tc
         | _ -> !bn * c < own * !bc)
  do
    incr s
  done;
  if !s < m then !s else -1

let e_first_defecting e rows r counts only =
  let caps = rows.caps.(r) and w = e.ew.(r) in
  let m = Array.length caps in
  (* [below a c n d]: a/c < n/d. *)
  let below a c n d = Bigint.compare (Bigint.mul a d) (Bigint.mul n c) < 0 in
  let bn = ref Bigint.zero and bc = ref Bigint.zero in
  let tn = ref Bigint.zero and tc = ref Bigint.zero in
  for l = 0 to m - 1 do
    let a = e_dev e caps w l and c = Rational.num caps.(l) in
    if Bigint.is_zero !bc || below a c !bn !bc then begin
      bn := a;
      bc := c
    end;
    match only with
    | Some t when t.(l) && (Bigint.is_zero !tc || below a c !tn !tc) ->
      tn := a;
      tc := c
    | _ -> ()
  done;
  let defects s =
    let own = Bigint.mul (plus e.eload.(s) e.eb.(r)) (Rational.den caps.(s))
    and cn = Rational.num caps.(s) in
    match only with
    | Some t when not t.(s) -> (not (Bigint.is_zero !tc)) && below !tn !tc own cn
    | _ -> below !bn !bc own cn
  in
  let s = ref 0 in
  while !s < m && not (counts.(!s) > 0 && defects !s) do
    incr s
  done;
  if !s < m then !s else -1

(* The per-pair scan the pass replaces, under SELFISH_SANITIZE: each
   occupied source in ascending order, [is_defector] for a full one and
   [improves] towards every masked link for a restricted one.  O(m²),
   and allocation-free on the packed lane like the pass itself. *)
let check_first_defecting only lane rows r counts got =
  let m = links lane in
  let want = ref (-1) and s = ref 0 in
  while !want < 0 && !s < m do
    let src = !s in
    if counts.(src) > 0 then begin
      let hit =
        match only with
        | Some t when not t.(src) ->
          let l = ref 0 in
          while !l < m && not (t.(!l) && improves lane rows r ~src !l) do
            incr l
          done;
          !l < m
        | _ -> is_defector lane rows r ~src
      in
      if hit then want := src
    end;
    incr s
  done;
  if !want <> got then
    Sanitize.fail
      (Printf.sprintf "Packing: the defector pass of row %d found source %d, the per-pair scan %d"
         r got !want)

let first_defecting_source ?only lane rows r counts =
  let s =
    match lane with
    | Packed pk ->
      n_first_defecting pk.piload pk.pcn pk.pcd (r * Array.length pk.piload) ~w:pk.ppw.(r) ~b:0
        counts only
    | Exact e when admitted e r ->
      n_first_defecting e.nload e.ncn e.ncd (r * Array.length e.nload) ~w:e.nw.(r) ~b:e.nb.(r)
        counts only
    | Exact e -> e_first_defecting e rows r counts only
  in
  if !Sanitize.enabled then check_first_defecting only lane rows r counts s;
  s

(* The maximal improving block.  After j − 1 row-[r] users moved from
   [src] to [dst] (each carrying its contribution T), the j-th mover
   improves iff
     (L_dst + (j−1)·T + W)/c_dst < (L_src − (j−1)·T + B)/c_src.
   With a = cd_dst·cn_src and b = cd_src·cn_dst this is
     (L_dst + W)·a + (j−1)·T·a < (L_src + B)·b − (j−1)·T·b
     ⟺ (j−1)·T·(a + b) < D,   D = (L_src + B)·b − (L_dst + W)·a.
   The valid j form a prefix (the left side grows with j), so the block
   is 0 when D ≤ 0 (not even the first mover gains) and otherwise the
   largest j with j − 1 < D/(T·(a+b)), i.e.
     ⌊(D − 1)/(T·(a + b))⌋ + 1
   for integer D > 0 — clamped to the [avail] users on [src].  A
   mover whose inequality is an equality stays: ties do not improve.
   On the packed lane B = 0 and T = W, L_src·b ≤ total·maxcd·maxcn and
   (L_dst + W)·a, T·(a + b) ≤ 2·total·maxcd·maxcn, so every
   intermediate is native under the product bound; an admitted exact
   row with [avail > 0] stays inside its own bound (see [admitted]). *)
let n_max_block load cn cd base ~w ~t ~b ~src ~dst ~avail =
  let a = cd.(base + dst) * cn.(base + src) and b' = cd.(base + src) * cn.(base + dst) in
  let d = ((load.(src) + b) * b') - ((load.(dst) + w) * a) in
  if d <= 0 then 0
  else begin
    let q = (d - 1) / (t * (a + b')) in
    if q >= avail - 1 then avail else q + 1
  end

let e_max_block e rows r ~src ~dst ~avail =
  let cs = rows.caps.(r).(src) and cd = rows.caps.(r).(dst) in
  let a = Bigint.mul (Rational.den cd) (Rational.num cs)
  and b = Bigint.mul (Rational.den cs) (Rational.num cd) in
  let d =
    Bigint.sub
      (Bigint.mul (plus e.eload.(src) e.eb.(r)) b)
      (Bigint.mul (Bigint.add e.eload.(dst) e.ew.(r)) a)
  in
  if Bigint.sign d <= 0 then 0
  else begin
    let q = Bigint.div (Bigint.sub d Bigint.one) (Bigint.mul e.et.(r) (Bigint.add a b)) in
    if Bigint.compare q (Bigint.of_int (avail - 1)) >= 0 then avail else Bigint.to_int_exn q + 1
  end

let max_block lane rows r ~src ~dst ~avail =
  match lane with
  | Packed pk ->
    let w = pk.ppw.(r) in
    n_max_block pk.piload pk.pcn pk.pcd (r * Array.length pk.piload) ~w ~t:w ~b:0 ~src ~dst ~avail
  | Exact e when avail > 0 && admitted e r ->
    let t =
      n_max_block e.nload e.ncn e.ncd (r * Array.length e.nload) ~w:e.nw.(r) ~t:e.nt.(r)
        ~b:e.nb.(r) ~src ~dst ~avail
    in
    if !Sanitize.enabled then agree "max_block" r t (e_max_block e rows r ~src ~dst ~avail);
    t
  | Exact e -> e_max_block e rows r ~src ~dst ~avail

(* --- structural deltas ------------------------------------------- *)

(* Each [revise_*] returns the lane to carry on with: [lane] itself,
   patched in place, or a fresh exact lane when the revised magnitudes
   break the product bound.  A spill leaves the packed record
   untouched, so the caller keeps it as the lane to restore on undo. *)

(* Copy-on-write: the packed row tables start out shared with the
   game's [Packing] record (and with sibling views); take private
   copies before the first structural write. *)
let own pk =
  if not pk.powned then begin
    pk.ppw <- Array.copy pk.ppw;
    pk.pcn <- Array.copy pk.pcn;
    pk.pcd <- Array.copy pk.pcd;
    pk.powned <- true
  end

(* The packed loads as an exact lane over [rows] (the tables the packed
   lane mirrors): an O(k + m) int→Bigint copy.  Every live denominator
   divides the packing scale, so the exact scale divides it too and the
   loads rescale by one native division each.  The capacity image is
   the packed tables themselves, shared: the packed lane is only kept
   for an undo, which drops the exact lane, and the exact lane copies
   them before its first capacity write. *)
let spill pk rows =
  let es = live_scale rows pk.pinit in
  let down = pk.pscale / Bigint.to_int_exn es in
  exact ~caps:(pk.pcn, pk.pcd) rows pk.pinit es
    (Array.map (fun s -> Bigint.of_int (s / down)) pk.piload)

(* [q·scale] as a positive native int, when integral and representable. *)
let scaled_int ~scale q =
  let d, r = Bigint.divmod (Bigint.of_int scale) (Rational.den q) in
  if not (Bigint.is_zero r) then None
  else
    match Bigint.to_int_opt (Bigint.mul (Rational.num q) d) with
    | Some x when x > 0 -> Some x
    | _ -> None

let revise_count lane rows r ~link ~delta =
  let lane =
    match lane with
    | Packed pk ->
      let pw = pk.ppw.(r) in
      if
        delta <= 0
        || (delta <= (max_int - pk.ptotal) / pw
            && admits ~total:(pk.ptotal + (delta * pw)) ~maxcn:pk.pmaxcn ~maxcd:pk.pmaxcd)
      then lane
      else spill pk rows
    | Exact _ -> lane
  in
  add_count lane r ~link ~delta;
  lane

(* Multiply ([up]) or exactly divide ([down]) every scaled quantity of
   the exact lane by [f]; a no-op for [f = 1]. *)
let rescale_exact e op f =
  if not (Bigint.equal f Bigint.one) then
    List.iter
      (fun a -> Array.iteri (fun i x -> a.(i) <- op x f) a)
      [ e.ew; e.et; e.eb; e.eload ]

(* Unchecked: row [r]'s users, laid out over the links as [counts],
   now each carry weight [weight] and contribution [contrib].  Reads the
   row's previous contribution, so call it before updating [rows].

   On the exact lane the new scale [s'] is the lcm of the live
   denominators with row [r]'s pair revised.  Every quantity is first
   lifted to lcm(s, s') (a multiple of both the old and the new
   denominators), the row is revised there, and every quantity is then
   divided down to [s'] — exactly, since each one is now a multiple of
   1/s'. *)
let reweight lane rows r counts ~weight ~contrib =
  match lane with
  | Exact e ->
    let s' = live_scale ~revise:(r, weight, contrib) rows e.einit in
    let g = Bigint.gcd e.es s' in
    let up = Bigint.div s' g in
    rescale_exact e Bigint.mul up;
    let lifted = Bigint.mul e.es up in
    let w' = scaled lifted weight and t' = scaled lifted contrib in
    let d = Bigint.sub t' e.et.(r) in
    if not (Bigint.is_zero d) then
      Array.iteri
        (fun l c -> if c > 0 then e.eload.(l) <- Bigint.add e.eload.(l) (times c d))
        counts;
    e.ew.(r) <- w';
    e.et.(r) <- t';
    e.eb.(r) <- Bigint.sub w' t';
    rescale_exact e Bigint.div (Bigint.div e.es g);
    e.es <- s';
    sync e.nw e.ew;
    sync e.nt e.et;
    sync e.nb e.eb;
    sync e.nload e.eload
  | Packed pk ->
    let pw' = match scaled_int ~scale:pk.pscale weight with Some x -> x | None -> assert false in
    let d = pw' - pk.ppw.(r) in
    Array.iteri
      (fun l e ->
        if e > 0 then begin
          pk.piload.(l) <- pk.piload.(l) + (e * d);
          pk.ptotal <- pk.ptotal + (e * d)
        end)
      counts;
    pk.ppw.(r) <- pw'

let revise_weight lane rows r counts ~weight ~contrib =
  let lane =
    match lane with
    | Packed pk -> begin
      let pw = pk.ppw.(r) in
      let occ = Array.fold_left ( + ) 0 counts in
      match scaled_int ~scale:pk.pscale weight with
      | Some pw'
        when occ <= max_int / pw'
             && pk.ptotal - (occ * pw) <= max_int - (occ * pw')
             && admits ~total:(pk.ptotal - (occ * pw) + (occ * pw')) ~maxcn:pk.pmaxcn
                  ~maxcd:pk.pmaxcd ->
        own pk;
        lane
      | _ -> spill pk rows
    end
    | Exact _ -> lane
  in
  reweight lane rows r counts ~weight ~contrib;
  lane

(* Unchecked: store [cap]'s reduced pair as row [r]'s capacity on
   [link].  The exact lane's [Bigint] kernels read capacities from the
   rows, so it only patches its image, copying a shared one first. *)
let set_capacity lane r ~link cap =
  match lane with
  | Exact e ->
    if not e.nowned then begin
      e.ncn <- Array.copy e.ncn;
      e.ncd <- Array.copy e.ncd;
      e.nowned <- true
    end;
    let m = Array.length e.nload in
    e.ncn.((r * m) + link) <- native (Rational.num cap);
    e.ncd.((r * m) + link) <- native (Rational.den cap);
    e.nlim.(r) <- row_limit e.ncn e.ncd m r
  | Packed pk ->
    let idx = (r * Array.length pk.piload) + link in
    pk.pcn.(idx) <- to_native (Rational.num cap);
    pk.pcd.(idx) <- to_native (Rational.den cap)

(* A spill shares the packed capacity tables, which still hold the old
   pair: the new lane is patched like any exact one. *)
let revise_capacity lane rows r ~link cap =
  match lane with
  | Exact _ ->
    set_capacity lane r ~link cap;
    lane
  | Packed pk -> (
    match (Bigint.to_int_opt (Rational.num cap), Bigint.to_int_opt (Rational.den cap)) with
    | Some a, Some b
      when admits ~total:pk.ptotal ~maxcn:(max pk.pmaxcn a) ~maxcd:(max pk.pmaxcd b) ->
      own pk;
      set_capacity lane r ~link cap;
      pk.pmaxcn <- max pk.pmaxcn a;
      pk.pmaxcd <- max pk.pmaxcd b;
      lane
    | _ ->
      let lane = spill pk rows in
      set_capacity lane r ~link cap;
      lane)

(* --- sanitizer --------------------------------------------------- *)

(* The scale invariant, re-derived from scratch in O(k·m): the scale is
   the lcm of the live denominators, every row entry is its rational
   times the scale, and every load is the scale times the initial
   traffic plus Σ count·contribution.  The native image is checked
   entry by entry against the [Bigint] state and the rows' capacities,
   and each row limit against its capacity image. *)
let audit lane rows count =
  match lane with
  | Exact e when !Sanitize.enabled ->
    if not (Bigint.equal e.es (live_scale rows e.einit)) then
      Sanitize.fail "Packing: exact-lane scale is not the lcm of the live denominators";
    let row_ok a qs = Array.for_all2 (fun x q -> Bigint.equal x (scaled e.es q)) a qs in
    if not (row_ok e.ew rows.weights && row_ok e.et rows.contribs && row_ok e.eb rows.biases)
    then Sanitize.fail "Packing: exact-lane row tables disagree with the rows";
    let image_ok n a = Array.for_all2 (fun x b -> x = native b) n a in
    let m = Array.length e.eload in
    let caps_ok = ref true in
    Array.iteri
      (fun r row ->
        Array.iteri
          (fun l c ->
            let i = (r * m) + l in
            if e.ncn.(i) <> native (Rational.num c) || e.ncd.(i) <> native (Rational.den c) then
              caps_ok := false)
          row;
        if e.nlim.(r) <> row_limit e.ncn e.ncd m r then caps_ok := false)
      rows.caps;
    if
      not
        (image_ok e.nw e.ew && image_ok e.nt e.et && image_ok e.nb e.eb
        && image_ok e.nload e.eload && !caps_ok)
    then Sanitize.fail "Packing: the exact lane's native image disagrees with its Bigint state";
    Array.iteri
      (fun l x ->
        let acc = ref (match e.einit with None -> Rational.zero | Some t -> t.(l)) in
        Array.iteri
          (fun r t ->
            let c = count r l in
            if c > 0 then acc := Rational.add !acc (Rational.mul (Rational.of_int c) t))
          rows.contribs;
        if not (Rational.equal (Rational.make x e.es) !acc) then
          Sanitize.fail
            (Printf.sprintf
               "Packing: exact-lane load %d is not the scale times the initial traffic plus \
                the placed contributions"
               l))
      e.eload
  | Exact _ | Packed _ -> ()
