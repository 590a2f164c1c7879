package loopscope
