module E = U1fix.Exported

let direct = U1fix.Exported.direct
let via_let_module = let module M = U1fix.Exported in M.via_let_module
let via_alias = E.via_alias
let inner = U1fix.Exported.Sub.inner_used

open U1fix.Exported

let opened = via_open
