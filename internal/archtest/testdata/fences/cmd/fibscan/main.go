package main

import _ "loopscope/internal/fibscan"
