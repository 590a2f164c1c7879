package netsim
