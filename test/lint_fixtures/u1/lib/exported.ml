let internal x = x + 1
let dead = 0
let test_only = internal 1
let bench_only = 3
let direct = 4
let via_open = 5
let via_let_module = 6
let via_alias = 7
let allowed = 8

module Sub = struct
  let inner_used = 9
  let inner_dead = 10
end
