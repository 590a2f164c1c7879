package fibscan

import _ "loopscope/internal/stats"
