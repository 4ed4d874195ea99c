let sat_sweep ?(guard = Guard.none) g = Cec.sweep ~guard g
