let protocol = Manet_broadcast.Protocol.flooding
