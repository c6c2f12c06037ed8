open Numeric

(* Native-int image of a game's numeric data, and the two load lanes
   that the [View] and [Cview] cursors run on.  Both lanes use one
   scheme: loads and row weights are integer numerators over one common
   denominator, and capacities are reduced (numerator, denominator)
   pairs, so every latency comparison is a three-factor integer cross
   product.  The packed lane holds native ints — [build] refuses
   (returns [None]) whenever any component spills the native range, and
   the product bound makes every product fit — and the exact lane holds
   native ints too, with a [Bigint] side table for any value past the
   native range.  An exact-lane row whose products fit (an O(1) test on
   the lane's total) runs the packed lane's own integer kernels, so
   packing is a pure optimisation with no semantic surface.

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

(* [a·b] for native [a, b >= 0], or [min_int] when it overflows.  Two
   factors below 2^31 cannot overflow, so the division runs only for a
   large one. *)
let mul_int a b = if a lor b < 1 lsl 31 || b = 0 || a <= max_int / b then a * b else min_int

(* Every packed predicate evaluates products of the shape
   (load + weight)·cden·cnum with load + weight ≤ 2·total, so the one
   bound that makes all of them (and every intermediate) exact is
   2·total·maxcd·maxcn ≤ max_int.  Checked on native ints once per view
   construction and per structural delta — after which the hot path
   carries no overflow checks at all.  A zero factor makes the product
   0 whatever the other overflows to. *)
let admits ~total ~maxcn ~maxcd =
  let t2 = mul_int 2 total and c = mul_int maxcd maxcn in
  total >= 0 && (t2 = 0 || c = 0 || (t2 <> min_int && c <> min_int && mul_int t2 c <> min_int))

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

(* The exact lane is the packed scheme over a scale [es] that is always
   exactly the lcm of the live weight, contribution and initial-traffic
   denominators: construction, spill and reweight recompute it and
   rescale exactly, so it shrinks back when a denominator leaves.
   Capacities are read from the rows' reduced num/den.

   Its state is native-primary.  Every load, every row entry (weight,
   contribution and bias times [es]) and the total Σ loads is a cell: a
   native int, or [min_int] when the value is past the native range, in
   which case the value sits in the same slot of a [Bigint] side table
   ([get]/[put]).  The side slot is read only under that sentinel.
   Loads are non-negative, so while the total is native every load is,
   and so is the contribution of every row with a user placed: a
   [shift] or [add_count] is then native arithmetic with no [Bigint] at
   all.  Beside the cells the lane keeps every capacity's num/den in
   the packed lane's row-major layout ([min_int] for a [Big] one), each
   row's [row_limit], and each row's weight/contribution denominator
   lcm, from which a reweight recomputes the scale natively.  A row
   that [admitted] admits runs the packed lane's integer kernels on the
   cells, unboxed; any other row runs the [Bigint] kernels. *)
type exact_lane = {
  mutable es : Bigint.t;
  nw : int array; (* weight_r · es *)
  nt : int array; (* contribution_r · es *)
  nb : int array; (* bias_r · es = nw − nt *)
  nload : int array; (* load_l · es *)
  ew : Bigint.t array; (* the side tables of nw, nt, nb and nload *)
  et : Bigint.t array;
  eb : Bigint.t array;
  eload : Bigint.t array;
  mutable ntotal : int; (* Σ_l load_l · es, with side slot [etotal] *)
  mutable etotal : Bigint.t;
  nden : int array; (* per row: lcm of its weight and contribution dens *)
  ninit : int; (* lcm of the initial-traffic dens, 1 without any *)
  einit : Rational.t array option; (* the initial traffic *)
  mutable ncn : int array; (* capacity numerators, row-major r*m + l *)
  mutable ncd : int array; (* capacity denominators *)
  mutable nowned : bool; (* ncn/ncd are private copies, safe to mutate *)
  nlim : int array; (* per row: [row_limit] of its capacities *)
}

type lane = Exact of exact_lane | Packed of packed_lane

let links = function
  | Exact e -> Array.length e.nload
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

(* --- cells -------------------------------------------------------- *)

(* Cell [i] of the native table [n] with side table [b]. *)
let get n b i =
  let x = n.(i) in
  if x = min_int then b.(i) else Bigint.of_int x

let put n b i x =
  let v = native x in
  n.(i) <- v;
  if v = min_int then b.(i) <- x

let total e = if e.ntotal = min_int then e.etotal else Bigint.of_int e.ntotal

let set_total e x =
  let v = native x in
  e.ntotal <- v;
  if v = min_int then e.etotal <- x

let load_big e l = get e.nload e.eload l
let weight_big e r = get e.nw e.ew r
let contrib_big e r = get e.nt e.et r
let bias_big e r = get e.nb e.eb r

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* The lcm of two positive native ints, or [min_int] when either is
   [min_int] (a [Big] denominator) or the lcm overflows. *)
let lcm_int a b =
  if a = min_int || b = min_int then min_int
  else if a = b || a mod b = 0 then a
  else mul_int a (b / gcd_int a b)

let den_int q = native (Rational.den q)
let row_den w t = lcm_int (den_int w) (den_int t)

let init_den = function
  | None -> 1
  | Some t -> Array.fold_left (fun s q -> lcm_int s (den_int q)) 1 t

(* The live scale from the native denominators [ninit] and [nden], with
   [revise = (r, w, t)] standing in for row [r]'s: one native lcm fold,
   and the [Bigint] [live_scale] only when a denominator is [Big] or
   the lcm overflows.  Armed, a native result is checked against
   [live_scale]. *)
let native_scale ?revise rows init ninit nden =
  let r, d = match revise with Some (r, w, t) -> (r, row_den w t) | None -> (-1, 0) in
  let s = ref ninit and i = ref 0 in
  while !s <> min_int && !i < Array.length nden do
    s := lcm_int !s (if !i = r then d else nden.(!i));
    incr i
  done;
  if !s = min_int then live_scale ?revise rows init
  else begin
    let s = Bigint.of_int !s in
    if !Sanitize.enabled && not (Bigint.equal s (live_scale ?revise rows init)) then
      Sanitize.fail
        (Printf.sprintf "Packing: the native live scale %s is not the lcm of the live denominators"
           (Bigint.to_string s));
    s
  end

(* [q·es] as a native int, or [min_int] when a factor or the product is
   past the native range; [q]'s denominator divides [es]. *)
let scaled_native es q =
  let s = native es and n = native (Rational.num q) and d = den_int q in
  if s = min_int || n = min_int || d = min_int then min_int else mul_int (s / d) n

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

(* Store [q·es] in cell [i]: a [Bigint] is built only for a value past
   the native range. *)
let put_scaled n b i es q =
  let v = scaled_native es q in
  if v <> min_int then n.(i) <- v else put n b i (scaled es q)

let cells es qs =
  let k = Array.length qs in
  let n = Array.make k 0 and b = Array.make k Bigint.zero in
  Array.iteri (fun i q -> put_scaled n b i es q) qs;
  (n, b)

(* A fresh exact lane over [rows] and [init], at their live scale [es],
   holding the loads [loads es].  The capacity image is [caps] when
   given (the packed tables of the same rows, shared until the first
   capacity revision), and built from [rows] otherwise. *)
let exact ?caps rows init loads =
  let nden = Array.map2 row_den rows.weights rows.contribs and ninit = init_den init in
  let es = native_scale rows init ninit nden in
  let (nw, ew), (nt, et), (nb, eb) =
    (cells es rows.weights, cells es rows.contribs, cells es rows.biases)
  in
  let loads = loads es in
  let m = Array.length loads in
  let nload = Array.make m 0 and eload = Array.make m Bigint.zero in
  Array.iteri (put nload eload) loads;
  let total = Array.fold_left Bigint.add Bigint.zero loads in
  let (ncn, ncd), nowned =
    match caps with Some tables -> (tables, false) | None -> (cap_image rows m, true)
  in
  Exact
    {
      es;
      nw;
      nt;
      nb;
      nload;
      ew;
      et;
      eb;
      eload;
      ntotal = native total;
      etotal = total;
      nden;
      ninit;
      einit = init;
      ncn;
      ncd;
      nowned;
      nlim = Array.init (Array.length nw) (row_limit ncn ncd m);
    }

(* [count·x], skipping the multiplication for a single user. *)
let times count x = if count = 1 then x else Bigint.mul (Bigint.of_int count) x

(* [x + y], skipping the addition (and its allocation) for a zero [y]:
   the bias of every load-linear row. *)
let plus x y = if Bigint.is_zero y then x else Bigint.add x y

(* [x] more on link [l]'s load and on the total, in [Bigint]. *)
let add_big e l x =
  put e.nload e.eload l (Bigint.add (load_big e l) x);
  set_total e (Bigint.add (total e) x)

(* Unchecked load patch: [delta] more row-[r] users on [link].  Loads
   sum contributions, not weights: other users only meet the
   presence-discounted traffic of a row (for load-linear rows the
   contribution is physically the weight).  On the exact lane a native
   total and contribution take the native path: a departure cannot
   wrap (|delta|·T is at most the load it leaves), and an arrival is
   checked against the room left below [max_int]. *)
let add_count lane r ~link ~delta =
  match lane with
  | Exact e ->
    let t = e.nt.(r) and tot = e.ntotal in
    let d =
      if tot = min_int || t = min_int then min_int
      else if delta <= 0 then delta * t
      else mul_int delta t
    in
    if d <> min_int && d <= max_int - tot then begin
      e.nload.(link) <- e.nload.(link) + d;
      e.ntotal <- tot + d
    end
    else add_big e link (times delta (contrib_big e r))
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
    exact ?caps:(Option.map (fun pk -> (pk.cn, pk.cd)) pk) rows initial (fun es ->
        match initial with
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
  | Exact e -> Rational.make (load_big e l) e.es
  | Packed pk -> Rational.make (Bigint.of_int pk.piload.(l)) (Bigint.of_int pk.pscale)

let load_num lane l =
  match lane with
  | Exact e -> load_big e l
  | Packed pk -> Bigint.of_int pk.piload.(l)

(* Unrecorded block reassignment: [count] row-[r] users from [src] to
   [dst].  Touches exactly the two affected load entries; both lanes
   are exact, so repeated shifts never drift.  [count·T] cannot wrap
   on native loads: it is at most the load on [src], which is at most
   the total (the packed lane's fits by construction, the exact lane's
   is native on this path). *)
let shift lane r ~src ~dst count =
  match lane with
  | Exact e ->
    if e.ntotal <> min_int then begin
      let d = count * e.nt.(r) in
      e.nload.(src) <- e.nload.(src) - d;
      e.nload.(dst) <- e.nload.(dst) + d
    end
    else begin
      let d = times count (contrib_big e r) in
      put e.nload e.eload src (Bigint.sub (load_big e src) d);
      put e.nload e.eload dst (Bigint.add (load_big e dst) d)
    end
  | Packed pk ->
    let d = count * pk.ppw.(r) in
    pk.piload.(src) <- pk.piload.(src) - d;
    pk.piload.(dst) <- pk.piload.(dst) + d

(* --- admission ---------------------------------------------------- *)

(* Row [r] admits the native kernels when every load and every capacity
   num/den of the row is native, 0 <= B <= W (so W, B and T = W − B are
   native too), and
     (max_l L_l + W)·maxcd_r·maxcn_r <= max_int,
   with maxcd_r, maxcn_r the row's largest capacity den and num: that
   is, max_l L_l + W <= [row_limit], exactly, as the limit is a floor.
   Every product the kernels form is then at most that bound: a
   deviation or own numerator (L + W)·cd or (L + B)·cd times a cn,
   [max_block]'s a, b <= maxcd·maxcn times L + W or L + B, and its
   T·(a + b) <= 2T·maxcd·maxcn, where 2T <= L_src + W once the source
   holds one of the row's users.

   Loads are non-negative, so max_l L_l <= Σ_l L_l: a native total with
   total + W within the limit admits the row in O(1).  Only when that
   fails does the O(m) max-load rule run, so the admitted rows are
   exactly the rule's.  Both are allocation-free. *)
let max_load_within e lim =
  let m = Array.length e.nload and l = ref 0 in
  while !l < m && e.nload.(!l) <> min_int && e.nload.(!l) <= lim do
    incr l
  done;
  !l = m

(* Armed: the O(1) test is exactly "Σ loads + W <= limit" on the total
   re-derived from the loads, and a row it admits passes the O(m)
   rule. *)
let check_admission e r lim quick =
  let sum = ref Bigint.zero in
  for l = 0 to Array.length e.nload - 1 do
    sum := Bigint.add !sum (load_big e l)
  done;
  if quick <> (Bigint.compare !sum (Bigint.of_int lim) <= 0) || (quick && not (max_load_within e lim))
  then
    Sanitize.fail
      (Printf.sprintf "Packing: the total test %s row %d against the loads' sum"
         (if quick then "admitted" else "refused") r)

let admitted e r =
  let w = e.nw.(r) and b = e.nb.(r) in
  0 <= b && b <= w
  &&
  let lim = e.nlim.(r) - w in
  let quick = 0 <= e.ntotal && e.ntotal <= lim in
  if !Sanitize.enabled then check_admission e r lim quick;
  quick || max_load_within e lim

(* An admitted kernel's answer against its [Bigint] twin, under
   SELFISH_SANITIZE. *)
let agree what r native exact =
  if native <> exact then
    Sanitize.fail
      (Printf.sprintf "Packing: the native %s of row %d gave %d, the Bigint kernel %d" what r
         native exact)

let agree_q what r native exact =
  if not (Rational.equal native exact) then
    Sanitize.fail
      (Printf.sprintf "Packing: the native %s of row %d gave %s, the Bigint kernel %s" what r
         (Rational.to_string native) (Rational.to_string exact))

(* --- latencies ---------------------------------------------------- *)

(* A row's own latency carries its bias (w − t): a user is always
   present for itself, even when others only expect it with probability
   p.  After a deviation the user meets its full weight: contribution +
   bias = w.  The packed lane holds load-linear rows only, where the
   bias is zero.  On native tables a latency is the numerator
   (load + extra)·cd over scale·cn: one native product, which an
   admitted row's bound covers. *)
let n_latency scale num cn = Rational.make (Bigint.of_int num) (Bigint.mul scale (Bigint.of_int cn))

(* The [Bigint] twin: [total] scaled by [es], over capacity [c]. *)
let e_latency e total c =
  Rational.make (Bigint.mul total (Rational.den c)) (Bigint.mul e.es (Rational.num c))

let latency lane rows r l =
  match lane with
  | Exact e when admitted e r ->
    let i = (r * Array.length e.nload) + l in
    let q = n_latency e.es ((e.nload.(l) + e.nb.(r)) * e.ncd.(i)) e.ncn.(i) in
    if !Sanitize.enabled then
      agree_q "latency" r q (e_latency e (plus (load_big e l) (bias_big e r)) rows.caps.(r).(l));
    q
  | Exact e -> e_latency e (plus (load_big e l) (bias_big e r)) rows.caps.(r).(l)
  | Packed pk ->
    let i = (r * Array.length pk.piload) + l in
    n_latency (Bigint.of_int pk.pscale) (pk.piload.(l) * pk.pcd.(i)) pk.pcn.(i)

let e_latency_after_move e rows r ~src dst =
  let extra = if dst = src then bias_big e r else weight_big e r in
  e_latency e (plus (load_big e dst) extra) rows.caps.(r).(dst)

let latency_after_move lane rows r ~src dst =
  match lane with
  | Exact e when admitted e r ->
    let i = (r * Array.length e.nload) + dst in
    let extra = if dst = src then e.nb.(r) else e.nw.(r) in
    let q = n_latency e.es ((e.nload.(dst) + extra) * e.ncd.(i)) e.ncn.(i) in
    if !Sanitize.enabled then
      agree_q "latency_after_move" r q (e_latency_after_move e rows r ~src dst);
    q
  | Exact e -> e_latency_after_move e rows r ~src dst
  | Packed pk ->
    let i = (r * Array.length pk.piload) + dst in
    let total = pk.piload.(dst) + if dst = src then 0 else pk.ppw.(r) in
    n_latency (Bigint.of_int pk.pscale) (total * pk.pcd.(i)) pk.pcn.(i)

(* --- the native kernels ------------------------------------------ *)

(* One integer kernel per decision, shared by both lanes.  Each reads
   a row's loads, weight W, contribution T and bias B, and its
   capacity nums/dens at [base] = r·m, from native tables: the packed
   lane passes its own with T = W and B = 0 (its rows are load-linear),
   the exact lane its cells, for a row that [admitted] admits.  A row
   it does not admit runs the [Bigint] twin of the kernel. *)

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
  let w = weight_big e r and b = bias_big e r in
  let numer l = Bigint.mul (plus (load_big e l) (if l = src then b else w)) (Rational.den caps.(l)) in
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
let n_improves load cn cd base ~w ~b ~src dst =
  (load.(dst) + w) * cd.(base + dst) * cn.(base + src)
  < (load.(src) + b) * cd.(base + src) * cn.(base + dst)

let n_is_defector load cn cd base ~w ~b ~src =
  let m = Array.length load in
  let cnum = (load.(src) + b) * cd.(base + src) and ccn = cn.(base + src) in
  let l = ref 0 in
  while !l < m && (!l = src || (load.(!l) + w) * cd.(base + !l) * ccn >= cnum * cn.(base + !l)) do
    incr l
  done;
  !l < m

let e_dev e caps w l = Bigint.mul (Bigint.add (load_big e l) w) (Rational.den caps.(l))

let e_improves e caps ~w ~cnum ~ccn l =
  Bigint.compare (Bigint.mul (e_dev e caps w l) ccn) (Bigint.mul cnum (Rational.num caps.(l))) < 0

(* Row [r]'s own numerator on [src] and that capacity's numerator. *)
let e_own e caps r src =
  (Bigint.mul (plus (load_big e src) (bias_big e r)) (Rational.den caps.(src)), Rational.num caps.(src))

let e_is_defector e rows r ~src =
  let caps = rows.caps.(r) and w = weight_big e r in
  let cnum, ccn = e_own e caps r src in
  let m = Array.length caps and l = ref 0 in
  while !l < m && (!l = src || not (e_improves e caps ~w ~cnum ~ccn !l)) do
    incr l
  done;
  !l < m

let is_defector lane rows r ~src =
  match lane with
  | Packed pk ->
    n_is_defector pk.piload pk.pcn pk.pcd (r * Array.length pk.piload) ~w:pk.ppw.(r) ~b:0 ~src
  | Exact e when admitted e r ->
    let d =
      n_is_defector e.nload e.ncn e.ncd (r * Array.length e.nload) ~w:e.nw.(r) ~b:e.nb.(r) ~src
    in
    if !Sanitize.enabled then
      agree "is_defector" r (Bool.to_int d) (Bool.to_int (e_is_defector e rows r ~src));
    d
  | Exact e -> e_is_defector e rows r ~src

let e_improves_to e rows r ~src dst =
  let caps = rows.caps.(r) in
  let cnum, ccn = e_own e caps r src in
  e_improves e caps ~w:(weight_big e r) ~cnum ~ccn dst

(* Single-destination restriction of [is_defector]: callers may probe
   candidate links one at a time without paying for a full
   best-response sweep. *)
let improves lane rows r ~src dst =
  dst <> src
  &&
  match lane with
  | Packed pk ->
    n_improves pk.piload pk.pcn pk.pcd (r * Array.length pk.piload) ~w:pk.ppw.(r) ~b:0 ~src dst
  | Exact e when admitted e r ->
    let i =
      n_improves e.nload e.ncn e.ncd (r * Array.length e.nload) ~w:e.nw.(r) ~b:e.nb.(r) ~src dst
    in
    if !Sanitize.enabled then
      agree "improves" r (Bool.to_int i) (Bool.to_int (e_improves_to e rows r ~src dst));
    i
  | Exact e -> e_improves_to e rows r ~src dst

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
  let caps = rows.caps.(r) and w = weight_big e r in
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
    let own, cn = e_own e caps r s in
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
      (Bigint.mul (plus (load_big e src) (bias_big e r)) b)
      (Bigint.mul (Bigint.add (load_big e dst) (weight_big e r)) a)
  in
  if Bigint.sign d <= 0 then 0
  else begin
    let q = Bigint.div (Bigint.sub d Bigint.one) (Bigint.mul (contrib_big e r) (Bigint.add a b)) in
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
   lane mirrors).  Every live denominator divides the packing scale,
   so the exact scale divides it too and the loads rescale by one
   native division each.  The capacity image is the packed tables
   themselves, shared: the packed lane is only kept for an undo, which
   drops the exact lane, and the exact lane copies them before its
   first capacity write. *)
let spill pk rows =
  exact ~caps:(pk.pcn, pk.pcd) rows pk.pinit (fun es ->
      let down = pk.pscale / Bigint.to_int_exn es in
      Array.map (fun s -> Bigint.of_int (s / down)) pk.piload)

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

(* [x·up/down] for a native cell [x], or [min_int] when a factor or the
   product is past the native range; [down] divides [x]. *)
let rescaled x ~nd ~nu =
  if x = min_int || nd = min_int || nu = min_int then min_int
  else
    let q = x / nd in
    if abs q <= max_int / nu then q * nu else min_int

(* Every row entry but row [r]'s, every load and the total, times
   up/down: natively where the quotient and product fit, in [Bigint]
   otherwise.  Each is a multiple of [down]: the loads hold no row-[r]
   users while this runs. *)
let rescale_cells e r ~down ~up =
  let nd = native down and nu = native up in
  let big x = Bigint.mul (Bigint.div x down) up in
  let cell n b i =
    let v = rescaled n.(i) ~nd ~nu in
    if v <> min_int then n.(i) <- v else put n b i (big (get n b i))
  in
  for i = 0 to Array.length e.nw - 1 do
    if i <> r then begin
      cell e.nw e.ew i;
      cell e.nt e.et i;
      cell e.nb e.eb i
    end
  done;
  for l = 0 to Array.length e.nload - 1 do
    cell e.nload e.eload l
  done;
  let v = rescaled e.ntotal ~nd ~nu in
  if v <> min_int then e.ntotal <- v else set_total e (big (total e))

(* Row [r]'s weight, contribution and bias entries at the current
   scale. *)
let set_row e r ~weight ~contrib =
  put_scaled e.nw e.ew r e.es weight;
  put_scaled e.nt e.et r e.es contrib;
  let w = e.nw.(r) and t = e.nt.(r) in
  if w <> min_int && t <> min_int then e.nb.(r) <- w - t
  else put e.nb e.eb r (Bigint.sub (weight_big e r) (contrib_big e r))

(* Row [r]'s users, laid out over the links as [counts], added to
   ([sign = 1]) or taken out of ([sign = -1]) the loads at its current
   contribution. *)
let place_row lane r counts sign =
  for l = 0 to Array.length counts - 1 do
    if counts.(l) > 0 then add_count lane r ~link:l ~delta:(sign * counts.(l))
  done

(* Unchecked: row [r]'s users, laid out over the links as [counts],
   now each carry weight [weight] and contribution [contrib].  Reads the
   row's previous contribution, so call it before updating [rows].

   On the exact lane the row's users leave the loads at the old scale,
   every other quantity is rescaled exactly from the old scale s to the
   new one s' (a no-op when they are equal, the common case once the
   live denominators settle), the row's entries are set at s', and its
   users return.  The new scale is the native lcm fold over the rows'
   cached denominators, so a same-scale reweight does O(m) native work
   and O(1) [Bigint] work at most. *)
let reweight lane rows r counts ~weight ~contrib =
  match lane with
  | Exact e ->
    let s' = native_scale ~revise:(r, weight, contrib) rows e.einit e.ninit e.nden in
    place_row lane r counts (-1);
    if not (Bigint.equal s' e.es) then begin
      let g = Bigint.gcd e.es s' in
      rescale_cells e r ~down:(Bigint.div e.es g) ~up:(Bigint.div s' g);
      e.es <- s'
    end;
    set_row e r ~weight ~contrib;
    e.nden.(r) <- row_den weight contrib;
    place_row lane r counts 1
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
   the lcm of the live denominators, and so are the cached per-row and
   initial-traffic denominators; every row entry is its rational times
   the scale; every load is the scale times the initial traffic plus
   Σ count·contribution, and the cached total is their sum.  Every cell
   is canonical (the sentinel exactly when the value is [Big]), and the
   capacity image and each row limit are checked against the rows. *)
let audit lane rows count =
  match lane with
  | Exact e when !Sanitize.enabled ->
    if not (Bigint.equal e.es (live_scale rows e.einit)) then
      Sanitize.fail "Packing: exact-lane scale is not the lcm of the live denominators";
    let dens_ok = ref (e.ninit = init_den e.einit) in
    Array.iteri
      (fun r d -> if d <> row_den rows.weights.(r) rows.contribs.(r) then dens_ok := false)
      e.nden;
    if not !dens_ok then Sanitize.fail "Packing: a cached exact-lane denominator is stale";
    let canonical n b i = n.(i) <> min_int || native b.(i) = min_int in
    let cells_ok = ref true in
    let check n b qs =
      Array.iteri
        (fun i q ->
          if not (canonical n b i && Bigint.equal (get n b i) (scaled e.es q)) then
            cells_ok := false)
        qs
    in
    check e.nw e.ew rows.weights;
    check e.nt e.et rows.contribs;
    check e.nb e.eb rows.biases;
    if not !cells_ok then Sanitize.fail "Packing: exact-lane row cells disagree with the rows";
    let m = Array.length e.nload in
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
    if not !caps_ok then
      Sanitize.fail "Packing: the exact lane's capacity image disagrees with the rows";
    let sum = ref Bigint.zero in
    for l = 0 to m - 1 do
      let x = load_big e l in
      sum := Bigint.add !sum x;
      let acc = ref (match e.einit with None -> Rational.zero | Some t -> t.(l)) in
      Array.iteri
        (fun r t ->
          let c = count r l in
          if c > 0 then acc := Rational.add !acc (Rational.mul (Rational.of_int c) t))
        rows.contribs;
      if not (canonical e.nload e.eload l && Rational.equal (Rational.make x e.es) !acc) then
        Sanitize.fail
          (Printf.sprintf
             "Packing: exact-lane load %d is not the scale times the initial traffic plus the \
              placed contributions"
             l)
    done;
    if not (Bigint.equal (total e) !sum && e.ntotal = native !sum) then
      Sanitize.fail "Packing: the exact lane's cached total is not the sum of its loads"
  | Exact _ | Packed _ -> ()
