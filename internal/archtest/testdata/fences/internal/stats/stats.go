package stats

import _ "expvar"
