package main

import (
	_ "loopscope/internal/api"
	_ "loopscope/pkg/loopscope"
)
