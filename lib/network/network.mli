(** Technology-independent networks (the paper's [T]) and their analyses.

    The graph API is at the top level (see {!module:Graph}); {!Levels}
    implements the paper's logic-level quantification and critical-input
    computation, {!Globals} the BDD global functions and cube images,
    {!Analysis} the incremental per-decomposition cache of cones,
    fanouts, support counts and dirty-region levels. *)

include module type of struct
  include Graph
end

module Levels = Levels
module Globals = Globals
module Analysis = Analysis
