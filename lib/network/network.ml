include Graph
module Levels = Levels
module Globals = Globals
module Analysis = Analysis
