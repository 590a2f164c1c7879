package api
