package core

import _ "loopscope/internal/netsim"
